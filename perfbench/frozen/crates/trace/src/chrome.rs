//! Chrome `trace_event` JSON exporter.
//!
//! Emits the JSON-object form of the [trace event format] consumed by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a
//! `traceEvents` array plus run metadata under `otherData`. Each rank
//! becomes a process (`pid`); within a rank, events are grouped into
//! named thread lanes by category (state, cpu, packets, wire, signals,
//! faults). Timestamps are microseconds with nanosecond precision in
//! the fractional digits.
//!
//! The JSON is hand-rolled — the workspace builds offline with no
//! serializer dependency — and every label is a `&'static str` chosen
//! by instrumentation code, so no string escaping is required.
//!
//! [trace event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::TraceEvent;
use crate::recorder::Trace;
use std::fmt::Write as _;

/// Timeline lane (Chrome `tid`) for an event category.
fn lane(ev: &TraceEvent) -> (u32, &'static str) {
    match ev.category() {
        "state" => (0, "state"),
        "cpu" => (1, "cpu"),
        "packet" => (2, "packets"),
        "wire" => (3, "wire"),
        "signal" => (4, "signals"),
        "fault" => (5, "faults"),
        _ => (6, "other"),
    }
}

/// Microsecond timestamp with the nanosecond remainder as fraction.
fn ts_us(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1_000, t_ns % 1_000)
}

fn push_event(out: &mut String, pid: u32, tid: u32, t_ns: u64, ev: &TraceEvent) {
    let cat = ev.category();
    let (ph, name, dur, args) = match *ev {
        TraceEvent::PhaseEnter { phase } => ("B", phase, None, String::new()),
        TraceEvent::PhaseExit { phase } => ("E", phase, None, String::new()),
        TraceEvent::SegPhaseEnter { phase, seg } => ("B", phase, None, format!("\"seg\":{seg}")),
        TraceEvent::SegPhaseExit { phase, seg } => ("E", phase, None, format!("\"seg\":{seg}")),
        TraceEvent::CpuCharge { bucket, nanos } => {
            ("X", bucket, Some(nanos), format!("\"nanos\":{nanos}"))
        }
        TraceEvent::WireSegment {
            dst,
            segment,
            nanos,
        } => (
            "X",
            segment,
            Some(nanos),
            format!("\"dst\":{dst},\"nanos\":{nanos}"),
        ),
        TraceEvent::LinkWait { link, wait_ns } => (
            "X",
            "link-wait",
            Some(wait_ns),
            format!("\"link\":{link},\"wait_ns\":{wait_ns}"),
        ),
        TraceEvent::PacketSend { dst, kind, bytes } => (
            "i",
            "send",
            None,
            format!("\"dst\":{dst},\"kind\":\"{kind}\",\"bytes\":{bytes}"),
        ),
        TraceEvent::PacketRecv { src, kind, bytes } => (
            "i",
            "recv",
            None,
            format!("\"src\":{src},\"kind\":\"{kind}\",\"bytes\":{bytes}"),
        ),
        TraceEvent::PacketDrop { dst, kind } => (
            "i",
            "drop",
            None,
            format!("\"dst\":{dst},\"kind\":\"{kind}\""),
        ),
        TraceEvent::Retransmit { peer, seq } => (
            "i",
            "retransmit",
            None,
            format!("\"peer\":{peer},\"seq\":{seq}"),
        ),
        TraceEvent::Signal { outcome } => ("i", outcome, None, String::new()),
        TraceEvent::EngineState { state } => ("i", state, None, String::new()),
        TraceEvent::FaultVerdict {
            dst,
            copies,
            extra_delay_ns,
        } => (
            "i",
            "verdict",
            None,
            format!("\"dst\":{dst},\"copies\":{copies},\"extra_delay_ns\":{extra_delay_ns}"),
        ),
        TraceEvent::MatchOutcome { queue, outcome } => {
            ("i", outcome, None, format!("\"queue\":\"{queue}\""))
        }
    };
    // Complete ("X") events span [t - dur, t]: charges are recorded
    // when the cost lands, so backdate the start.
    let ts = match dur {
        Some(d) => ts_us(t_ns.saturating_sub(d)),
        None => ts_us(t_ns),
    };
    let _ = write!(out, "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}");
    if let Some(d) = dur {
        let _ = write!(out, ",\"dur\":{}", ts_us(d));
    }
    if ph == "i" {
        out.push_str(",\"s\":\"t\"");
    }
    if !args.is_empty() {
        let _ = write!(out, ",\"args\":{{{args}}}");
    }
    out.push('}');
}

/// Render a drained [`Trace`] as Chrome `trace_event` JSON.
///
/// Single-tenant traces (the default) map each rank to a process
/// (`pid = rank`) with category lanes as threads. When the trace was
/// recorded with a job map installed ([`Trace::has_jobs`]), the layout
/// switches to one process **per job** (`pid = job`, named `"job {j}"`)
/// with `tid = rank * 8 + lane` so every rank keeps its own lane group
/// inside its job's process — co-scheduled jobs render side by side.
///
/// # Examples
///
/// ```
/// use abr_trace::{chrome_trace_json, validate_json, RingRecorder, TraceClock, TraceEvent};
///
/// let rec = RingRecorder::new(1, 16, TraceClock::Virtual, 7, 0);
/// rec.set_now_ns(2_500);
/// rec.handle_for(0).emit(TraceEvent::PacketSend { dst: 1, kind: "coll", bytes: 64 });
/// let json = chrome_trace_json(&rec.snapshot());
/// validate_json(&json).expect("exporter emits well-formed JSON");
/// assert!(json.contains("\"traceEvents\""));
/// assert!(json.contains("\"ts\":2.500"));
/// ```
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(256 + trace.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut jobs_named: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for (rank, recs) in trace.per_rank.iter().enumerate() {
        if recs.is_empty() {
            continue;
        }
        // Single-tenant: pid = rank, tid = lane. Multi-tenant: pid =
        // job, tid = rank * 8 + lane (8 > the 7 lane ids, so lane
        // groups of distinct ranks never collide within a job).
        let rank = rank as u32;
        let job = recs[0].job;
        let pid = if trace.has_jobs { job } else { rank };
        if !first {
            out.push(',');
        }
        first = false;
        // Process + thread-name metadata so chrome://tracing labels lanes.
        if trace.has_jobs {
            if jobs_named.insert(job) {
                let _ = write!(
                    out,
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"job {job}\"}}}},"
                );
            }
            let _ = write!(
                out,
                "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"sort_index\":{job}}}}}"
            );
        } else {
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"rank {pid}\"}}}}"
            );
        }
        let mut lanes_seen = [false; 7];
        for r in recs {
            let (lane_id, lane_name) = lane(&r.event);
            let tid = if trace.has_jobs {
                rank * 8 + lane_id
            } else {
                lane_id
            };
            if !lanes_seen[lane_id as usize] {
                lanes_seen[lane_id as usize] = true;
                if trace.has_jobs {
                    let _ = write!(
                        out,
                        ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"rank {rank} {lane_name}\"}}}}"
                    );
                } else {
                    let _ = write!(
                        out,
                        ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{lane_name}\"}}}}"
                    );
                }
            }
            out.push(',');
            push_event(&mut out, pid, tid, r.t_ns, &r.event);
        }
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"seed\":{},\"attempt\":{},\"clock\":\"{}\",\"dropped\":{}}}}}",
        trace.seed,
        trace.attempt,
        trace.clock.label(),
        trace.dropped
    );
    out
}

/// Validate that `s` is one well-formed JSON value (recursive-descent
/// checker; no parse tree is built). Used by tests and `trace_figure`
/// to guarantee the exporter's output loads in `chrome://tracing`.
///
/// # Examples
///
/// ```
/// use abr_trace::validate_json;
///
/// assert!(validate_json("{\"a\":[1,2.5,true,null,\"x\"]}").is_ok());
/// assert!(validate_json("{\"a\":}").is_err());
/// assert!(validate_json("{} trailing").is_err());
/// ```
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, "true"),
        Some(b'f') => literal(b, i, "false"),
        Some(b'n') => literal(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        _ => Err(format!("expected a JSON value at byte {i}", i = *i)),
    }
}

fn object(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at byte {i}", i = *i));
        }
        *i += 1;
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {i}", i = *i)),
        }
    }
}

fn array(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {i}", i = *i)),
        }
    }
}

fn literal(b: &[u8], i: &mut usize, word: &str) -> Result<(), String> {
    if b[*i..].starts_with(word.as_bytes()) {
        *i += word.len();
        Ok(())
    } else {
        Err(format!("malformed literal at byte {i}", i = *i))
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {i}", i = *i));
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => *i += 2,
            _ => *i += 1,
        }
    }
    Err("unterminated string".into())
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let start = *i;
        while b.get(*i).is_some_and(|c| c.is_ascii_digit()) {
            *i += 1;
        }
        *i > start
    };
    if !digits(b, i) {
        return Err(format!("malformed number at byte {i}", i = *i));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(format!("malformed number fraction at byte {i}", i = *i));
        }
    }
    if matches!(b.get(*i), Some(b'e') | Some(b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+') | Some(b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(format!("malformed number exponent at byte {i}", i = *i));
        }
    }
    Ok(())
}
