//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs the workload's points in passes, untimed warm-up passes first,
//! until another pass would overrun `--seconds`, and prints a table and one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured without
//! instrumentation: every point runs on the current simulator and on the
//! frozen copy in `frozen/`, one right after the other, and the speed-ups
//! are their time ratios. With `--trace 1` they are the per-layer ones,
//! from passes run through the timing adapters (alternating with plain
//! passes, which give the adapters' own cost and the raw host speed).
//! `attempted` and `failed` count rank-reductions; a point that panics or
//! returns a wrong root result counts as failed.

use abr_cluster::RelStats;
use abr_jobs::Placement;
use abr_mpr::TopoSchedule;
use abr_trace::{RingRecorder, TraceClock, Tracer};
use perfbench::point::{placement, NetStats};
use perfbench::probe::{self, Tally};
use perfbench::{run_point, Point, PointOut, Workload, END_TO_END, PER_LAYER};
use perfbench_frozen as frozen;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <paper32|scale8k|fabric_lossy2k|tenant> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| bad("a whole number of seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let points = args.workload.points(args.seed);
    let mut run = Run::default();
    let metrics = if args.trace {
        traced(&args, &points, &mut run)
    } else {
        // The frozen copy builds the same source, so it has every workload.
        let twins = frozen::Workload::parse(args.workload.name())
            .expect("the frozen build knows every workload")
            .points(args.seed);
        untraced(&args, &points, &twins, &mut run)
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "# {} seed={} trace={} passes={} results_checked={} failed={}/{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        run.passes,
        run.checked,
        run.failed,
        run.attempted
    );
    let mut json = Vec::new();
    for &(name, unit) in table {
        let mut value = metrics.get(name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            run.correct = false;
            value = 0.0;
        }
        println!("{name:<32} {value:>20.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct,
        run.attempted,
        run.failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}

/// Outcome bookkeeping shared by both modes.
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Reduction results compared with their analytic value.
    checked: u64,
    passes: usize,
}

impl Default for Run {
    fn default() -> Self {
        Run {
            correct: true,
            attempted: 0,
            failed: 0,
            checked: 0,
            passes: 0,
        }
    }
}

impl Run {
    /// Run one point and book its rank-reductions; `None` when it failed.
    fn point(&mut self, p: &Point, probe: bool) -> Option<PointOut> {
        let rr = p.rank_reductions();
        self.attempted += rr;
        match run_point(p, probe, None) {
            Ok(out) => {
                self.checked += out.checked;
                if out.wrong > 0 {
                    eprintln!(
                        "perfbench: {} rank-reductions returned wrong results",
                        out.wrong
                    );
                    self.correct = false;
                    self.failed += out.wrong;
                }
                Some(out)
            }
            Err(msg) => {
                eprintln!("perfbench: point failed: {msg}");
                self.failed += rr;
                None
            }
        }
    }

    /// Run a point on the frozen simulator: its simulation and wall
    /// seconds, or `None` when it failed, which makes the run incorrect
    /// (the frozen copy runs every workload point at its own commit).
    fn twin(&mut self, p: &frozen::Point) -> Option<(f64, f64)> {
        let t0 = Instant::now();
        match frozen::run_point(p, false, None) {
            Ok(out) => Some((out.sim_s, t0.elapsed().as_secs_f64())),
            Err(msg) => {
                eprintln!("perfbench: frozen point failed: {msg}");
                self.correct = false;
                None
            }
        }
    }
}

/// What must repeat exactly from pass to pass, per point.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Digest {
    fingerprint: u64,
    model_cpu_us: f64,
    makespan_us: f64,
    rank_reductions: u64,
    ab: bool,
}

fn digest(p: &Point, out: &PointOut) -> Digest {
    let mut h = DefaultHasher::new();
    (out.events, out.packets, out.makespan_us.to_bits()).hash(&mut h);
    for n in &out.nodes {
        for o in &n.obs {
            (o.key, o.value.to_bits()).hash(&mut h);
        }
        for v in [
            n.cpu_app_us,
            n.cpu_poll_us,
            n.cpu_protocol_us,
            n.cpu_signal_us,
            n.cpu_nic_us,
        ] {
            v.to_bits().hash(&mut h);
        }
        (n.signals_raised, n.signals_suppressed_busy, &n.counters).hash(&mut h);
    }
    Digest {
        fingerprint: h.finish(),
        model_cpu_us: out.model_cpu_us,
        makespan_us: out.makespan_us,
        rank_reductions: p.rank_reductions(),
        ab: p.ab(),
    }
}

/// Wall-clock seconds of one point in one pass.
#[derive(Debug, Clone, Copy)]
struct Sample {
    setup_s: f64,
    sim_s: f64,
    /// Set-up, simulation and reading the results back.
    wall_s: f64,
    /// The frozen simulator's simulation and wall seconds on the same
    /// point in the same pass, when it ran.
    twin: Option<(f64, f64)>,
}

/// One pass over `points`: per point its digest and timing (`None` for a
/// failed point), with each successful point's output handed to `each`.
/// Each point's frozen twin in `twins`, if any, runs right before it when
/// `twin_first` is set and right after it otherwise.
fn pass(
    run: &mut Run,
    points: &[Point],
    probe: bool,
    twins: &[frozen::Point],
    twin_first: bool,
    mut each: impl FnMut(&Point, &PointOut),
) -> Vec<Option<(Digest, Sample)>> {
    run.passes += 1;
    points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let twin = twins.get(i);
            let mut frozen_s = None;
            if twin_first {
                frozen_s = twin.and_then(|f| run.twin(f));
            }
            let t0 = Instant::now();
            let out = run.point(p, probe);
            let wall_s = t0.elapsed().as_secs_f64();
            if !twin_first {
                frozen_s = twin.and_then(|f| run.twin(f));
            }
            let out = out?;
            each(p, &out);
            let sample = Sample {
                setup_s: out.setup_s,
                sim_s: out.sim_s,
                wall_s,
                twin: frozen_s,
            };
            Some((digest(p, &out), sample))
        })
        .collect()
}

/// Check a pass against the reference pass: the simulation is
/// deterministic, so every point must reproduce exactly.
fn check_repeat(run: &mut Run, reference: &[Option<Digest>], pass: &[Option<(Digest, Sample)>]) {
    if pass
        .iter()
        .map(|o| o.map(|(d, _)| d))
        .ne(reference.iter().copied())
    {
        eprintln!("perfbench: a pass did not reproduce the reference pass");
        run.correct = false;
    }
}

/// Simulation seconds of a pass over its successful points.
fn pass_sim_s(pass: &[Option<(Digest, Sample)>]) -> f64 {
    pass.iter().flatten().map(|(_, s)| s.sim_s).sum()
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end run. A warm-up pass of the current simulator gives the
/// reference digests, the model metrics and the peak memory, before the
/// frozen copy has run; a warm-up pass of the frozen copy follows. Timed
/// pairs of passes then run every point on both simulators, one right
/// after the other, until the deadline. A speed-up is the frozen
/// simulator's seconds over the current one's, summed over a pair's
/// points, median over the pairs: both halves of a ratio run within a
/// second or two of each other, so the host's speed swings cancel out of
/// it. `setup_s` sums, over points, the median of the point's timed
/// set-ups.
fn untraced(
    args: &Args,
    points: &[Point],
    twins: &[frozen::Point],
    run: &mut Run,
) -> BTreeMap<&'static str, f64> {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let reference: Vec<Option<Digest>> = pass(run, points, false, &[], false, |_, _| {})
        .into_iter()
        .map(|o| o.map(|(d, _)| d))
        .collect();
    let peak_rss_mb = peak_rss_mb();
    for t in twins {
        run.twin(t);
    }
    let mut setups: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    let (mut sim_speedups, mut wall_speedups) = (Vec::new(), Vec::new());
    // Stop when another pair of passes of the last one's length would
    // overrun.
    let mut last = Duration::ZERO;
    while sim_speedups.is_empty() || Instant::now() + last < deadline {
        let t0 = Instant::now();
        // Frozen and current seconds over the points both simulators ran,
        // pooled over two passes that run the builds in opposite orders,
        // which cancels whatever going first or second costs.
        let mut sums = [0.0; 4];
        for twin_first in [false, true] {
            let timed = pass(run, points, false, twins, twin_first, |_, _| {});
            check_repeat(run, &reference, &timed);
            for (_, s) in timed.iter().flatten() {
                if let Some((sim, wall)) = s.twin {
                    for (acc, v) in sums.iter_mut().zip([sim, s.sim_s, wall, s.wall_s]) {
                        *acc += v;
                    }
                }
            }
            for (acc, o) in setups.iter_mut().zip(&timed) {
                acc.extend(o.map(|(_, s)| s.setup_s));
            }
        }
        sim_speedups.push(sums[0] / sums[1]);
        wall_speedups.push(sums[2] / sums[3]);
        last = t0.elapsed();
    }
    let setup_s = setups
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(median)
        .sum();
    let done: Vec<&Digest> = reference.iter().flatten().collect();
    let model_cpu = |ab: bool| {
        let (cpu, rr) = done
            .iter()
            .filter(|d| d.ab == ab)
            .fold((0.0, 0u64), |(c, r), d| {
                (
                    c + d.model_cpu_us * d.rank_reductions as f64,
                    r + d.rank_reductions,
                )
            });
        cpu / rr as f64
    };
    let (nab, ab) = (model_cpu(false), model_cpu(true));
    BTreeMap::from([
        ("sim_speedup", median(sim_speedups)),
        ("wall_speedup", median(wall_speedups)),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb),
        ("model_nab_cpu_us", nab),
        ("model_ab_cpu_us", ab),
        ("model_foi", nab / ab),
        (
            "model_makespan_us",
            done.iter().map(|d| d.makespan_us).sum(),
        ),
    ])
}

/// Per-layer sums over the points of one traced pass.
#[derive(Default)]
struct Layers {
    sim_s: f64,
    events: u64,
    packets: u64,
    /// Adapter tallies of nab (0) and ab (1) points.
    tally: [Tally; 2],
    nab_counters: BTreeMap<&'static str, u64>,
    signals_raised: u64,
    signals_suppressed: u64,
    /// Host meters per mode: app, poll, protocol, signal, NIC (µs).
    cpu: [[f64; 5]; 2],
    rank_reductions: [u64; 2],
    net: NetStats,
    rel: RelStats,
}

impl Layers {
    fn add(&mut self, p: &Point, out: &PointOut) {
        let m = usize::from(p.ab());
        self.sim_s += out.sim_s;
        self.events += out.events;
        self.packets += out.packets;
        let (t, l) = (&mut self.tally[m], &out.layers);
        t.engine_ns += l.engine_ns;
        t.engine_calls += l.engine_calls;
        t.progress_calls += l.progress_calls;
        t.progress_hits += l.progress_hits;
        t.signal_calls += l.signal_calls;
        t.signal_hits += l.signal_hits;
        t.program_ns += l.program_ns;
        t.program_calls += l.program_calls;
        for n in &out.nodes {
            if m == 0 {
                for &(k, v) in &n.counters {
                    *self.nab_counters.entry(k).or_default() += v;
                }
            } else {
                self.signals_raised += n.signals_raised;
                self.signals_suppressed += n.signals_suppressed_busy;
            }
            let buckets = [
                n.cpu_app_us,
                n.cpu_poll_us,
                n.cpu_protocol_us,
                n.cpu_signal_us,
                n.cpu_nic_us,
            ];
            for (acc, v) in self.cpu[m].iter_mut().zip(buckets) {
                *acc += v;
            }
        }
        self.rank_reductions[m] += p.rank_reductions();
        let (s, o) = (&mut self.net, &out.net);
        s.packets += o.packets;
        s.bytes += o.bytes;
        s.link_waits += o.link_waits;
        s.link_wait_us += o.link_wait_us;
        s.floor_entries += o.floor_entries;
        s.floors_pruned += o.floors_pruned;
        self.rel.merge(&out.rel);
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let [nab, ab] = &self.tally;
        let program_ns = nab.program_ns + ab.program_ns;
        let self_ns = self.sim_s * 1e9 - (nab.engine_ns + ab.engine_ns + program_ns) as f64;
        let counter = |k: &str| self.nab_counters.get(k).copied().unwrap_or(0);
        let mut out = vec![
            ("driver.events", self.events as f64),
            ("driver.packets", self.packets as f64),
            ("driver.self_ns_per_event", self_ns / self.events as f64),
            ("mpr.calls", nab.engine_calls as f64),
            ("mpr.busy_s", nab.engine_ns as f64 / 1e9),
            ("mpr.ns_per_call", ratio(nab.engine_ns, nab.engine_calls)),
            (
                "mpr.progress_hit_ratio",
                ratio(nab.progress_hits, nab.progress_calls),
            ),
            ("mpr.polls", counter("polls") as f64),
            ("mpr.copies", counter("copies") as f64),
            ("mpr.copy_bytes", counter("copy_bytes") as f64),
            (
                "mpr.unexpected_ratio",
                ratio(counter("unexpected_enqueued"), counter("packets_processed")),
            ),
            ("core.calls", ab.engine_calls as f64),
            ("core.busy_s", ab.engine_ns as f64 / 1e9),
            ("core.ns_per_call", ratio(ab.engine_ns, ab.engine_calls)),
            ("core.signals_raised", self.signals_raised as f64),
            ("core.signals_suppressed", self.signals_suppressed as f64),
            (
                "core.signal_hit_ratio",
                ratio(ab.signal_hits, ab.signal_calls),
            ),
        ];
        const BUCKETS: [[&str; 5]; 2] = [
            [
                "cpu.nab.app_us",
                "cpu.nab.poll_us",
                "cpu.nab.protocol_us",
                "cpu.nab.signal_us",
                "cpu.nab.nic_us",
            ],
            [
                "cpu.ab.app_us",
                "cpu.ab.poll_us",
                "cpu.ab.protocol_us",
                "cpu.ab.signal_us",
                "cpu.ab.nic_us",
            ],
        ];
        for ((names, cpu), rr) in BUCKETS.iter().zip(&self.cpu).zip(self.rank_reductions) {
            for (name, us) in names.iter().zip(cpu) {
                out.push((name, us / rr as f64));
            }
        }
        let (n, r) = (&self.net, &self.rel);
        out.extend([
            ("fabric.packets", n.packets as f64),
            ("fabric.bytes", n.bytes as f64),
            ("fabric.link_waits", n.link_waits as f64),
            ("fabric.link_wait_us", n.link_wait_us),
            ("fabric.floor_entries", n.floor_entries as f64),
            ("fabric.floors_pruned", n.floors_pruned as f64),
            ("faults.retransmissions", r.retransmissions as f64),
            (
                "faults.duplicates_suppressed",
                r.duplicates_suppressed as f64,
            ),
            ("faults.acks_sent", r.acks_sent as f64),
            ("faults.links_dead", r.links_dead as f64),
            ("program.busy_s", program_ns as f64 / 1e9),
            (
                "program.ns_per_call",
                ratio(program_ns, nab.program_calls + ab.program_calls),
            ),
        ]);
        out
    }
}

/// Median wall milliseconds of `f` over a few repetitions.
fn time_ms(mut f: impl FnMut()) -> f64 {
    median(
        (0..5)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// Trace-ring slots per rank and iteration: a rank emits roughly 100 to
/// 230 records per iteration (see README.md).
const RING_SLOTS_PER_ITER: usize = 256;

/// The point whose trace-recorder cost is measured: the workload's largest,
/// with iterations cut so its rings stay near 2^21 slots (about 120 MB).
fn trace_point(points: &[Point]) -> (Point, usize) {
    let mut p = points
        .iter()
        .max_by_key(|p| p.rank_reductions())
        .expect("a workload has points")
        .clone();
    if let Point::Paper(cfg) = &mut p {
        let fit = (1 << 21) / (cfg.cluster.len() * RING_SLOTS_PER_ITER);
        cfg.iters = cfg.iters.min(fit.max(1) as u64);
    }
    let per_rank = p.rank_reductions() as usize / p.ranks();
    (p, RING_SLOTS_PER_ITER * (per_rank + 1))
}

/// The traced run: calibrations, the trace-recorder cost on one point,
/// then alternating plain and adapter passes until the deadline.
fn traced(args: &Args, points: &[Point], run: &mut Run) -> BTreeMap<&'static str, f64> {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut metrics = BTreeMap::new();
    let timer_ns = probe::timer_read_ns();
    metrics.insert("adapters.timer_ns", timer_ns);
    let mut schedules = Vec::new();
    for s in points.iter().flat_map(Point::schedules) {
        if !schedules.contains(&s) {
            schedules.push(s);
        }
    }
    metrics.insert(
        "topology.build_ms",
        schedules
            .iter()
            .map(|&(kind, n)| {
                time_ms(|| drop(std::hint::black_box(TopoSchedule::build(kind, 0, n))))
            })
            .sum(),
    );
    metrics.insert(
        "jobs.place_ms",
        points
            .iter()
            .map(|p| match p {
                Point::Tenant(cfg) => time_ms(|| drop(std::hint::black_box(placement(cfg)))),
                // A solo run is the one-job identity placement.
                Point::Paper(cfg) => {
                    time_ms(|| drop(std::hint::black_box(Placement::identity(cfg.cluster.len()))))
                }
            })
            .sum(),
    );

    // Trace-recorder cost, off vs on. The first recorded run sizes the
    // rings to what the point emits, so the timed runs allocate no more
    // than a user sizing them for this point would.
    let (p, mut capacity) = trace_point(points);
    let (mut off, mut on, mut records) = (Vec::new(), Vec::new(), 0);
    for rep in 0..3 {
        let rec = RingRecorder::new(
            p.ranks() as u32,
            capacity,
            TraceClock::Virtual,
            args.seed,
            0,
        );
        run.attempted += p.rank_reductions();
        match run_point(&p, false, Some(Arc::clone(&rec) as Arc<dyn Tracer>)) {
            Ok(out) if rep > 0 => on.push(out.sim_s),
            Ok(_) => {}
            Err(msg) => {
                eprintln!("perfbench: traced point failed: {msg}");
                run.failed += p.rank_reductions();
            }
        }
        let trace = rec.snapshot();
        if trace.dropped > 0 {
            eprintln!("perfbench: trace ring dropped {} records", trace.dropped);
        }
        records = trace.len() as u64 + trace.dropped;
        capacity = trace
            .per_rank
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(1)
            .max(1);
        if rep > 0 {
            if let Some(out) = run.point(&p, false) {
                off.push(out.sim_s);
            }
        }
    }
    metrics.insert("trace.overhead_ratio", median(on) / median(off));
    metrics.insert("trace.records", records as f64);

    // Plain and adapter passes, alternating.
    let mut per_pass: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut overhead = Vec::new();
    let mut last = Duration::ZERO;
    while overhead.is_empty() || Instant::now() + last < deadline {
        let t0 = Instant::now();
        let plain = pass(run, points, false, &[], false, |_, _| {});
        let mut layers = Layers::default();
        let probed = pass(run, points, true, &[], false, |p, out| layers.add(p, out));
        // The adapters must not change what is simulated.
        let reference: Vec<Option<Digest>> = plain.iter().map(|o| o.map(|(d, _)| d)).collect();
        check_repeat(run, &reference, &probed);
        overhead.push(pass_sim_s(&probed) / pass_sim_s(&plain));
        // Raw host speed of the plain pass, with no frozen copy to cancel
        // the host's swings against.
        let rr: u64 = points
            .iter()
            .zip(&plain)
            .filter(|(_, o)| o.is_some())
            .map(|(p, _)| p.rank_reductions())
            .sum();
        let wall_s: f64 = plain.iter().flatten().map(|(_, s)| s.wall_s).sum();
        for (name, v) in layers.metrics().into_iter().chain([
            ("host.rank_reductions_per_s", rr as f64 / pass_sim_s(&plain)),
            ("host.wall_s", wall_s),
        ]) {
            per_pass.entry(name).or_default().push(v);
        }
        last = t0.elapsed();
    }
    metrics.insert("adapters.overhead_ratio", median(overhead));
    for (name, vs) in per_pass {
        metrics.insert(name, median(vs));
    }
    // A layer whose mean call is cheaper than one timer read is below
    // what the adapters can resolve.
    let below: Vec<&str> = ["mpr.ns_per_call", "core.ns_per_call", "program.ns_per_call"]
        .into_iter()
        .filter(|key| metrics.get(key).is_some_and(|&ns| ns < timer_ns))
        .collect();
    if !below.is_empty() {
        println!(
            "# below the {timer_ns:.1} ns timer read: {}",
            below.join(", ")
        );
    }
    metrics.insert("adapters.layers_below_timer", below.len() as f64);
    metrics
}
