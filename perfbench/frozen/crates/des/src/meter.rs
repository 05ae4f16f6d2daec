//! Per-node CPU-time accounting.
//!
//! The paper's headline metric is *average per-node CPU utilization* of a
//! reduction: the CPU microseconds a node spends on the operation, whether
//! synchronously inside `MPI_Reduce` (polling included) or asynchronously in
//! a signal handler. [`CpuMeter`] charges every simulated CPU activity and
//! supports measurement windows so the microbenchmark can apply the paper's
//! recipe (measure the window, subtract the injected skew and catch-up
//! delays).
//!
//! The [`CpuCategory::NicOffload`] category records work done on the *NIC
//! processor* (the §VII NIC-based-reduction extension); it is excluded from
//! [`CpuWindow::host_total`] because it does not occupy the host CPU.

use crate::time::SimDuration;
use abr_trace::{TraceEvent, TraceHandle};

/// Labels for where CPU time went; used for diagnostic breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuCategory {
    /// Application busy loops (skew injection, catch-up, "useful work").
    Application,
    /// Polling the network inside a blocking MPI call.
    Polling,
    /// Protocol processing: matching, copies, reduction arithmetic, sends.
    Protocol,
    /// Signal delivery and asynchronous handler execution.
    SignalHandler,
    /// Work performed on the NIC processor instead of the host (the
    /// NIC-based reduction extension).
    NicOffload,
}

const NUM_CATEGORIES: usize = 5;

impl CpuCategory {
    /// Stable short label used as the trace/attribution bucket name.
    pub fn label(self) -> &'static str {
        match self {
            CpuCategory::Application => "app",
            CpuCategory::Polling => "poll",
            CpuCategory::Protocol => "protocol",
            CpuCategory::SignalHandler => "signal",
            CpuCategory::NicOffload => "nic",
        }
    }

    fn index(self) -> usize {
        match self {
            CpuCategory::Application => 0,
            CpuCategory::Polling => 1,
            CpuCategory::Protocol => 2,
            CpuCategory::SignalHandler => 3,
            CpuCategory::NicOffload => 4,
        }
    }
}

/// Per-category charge totals captured by a measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuWindow {
    /// Application busy-loop time.
    pub application: SimDuration,
    /// Poll-burn time.
    pub polling: SimDuration,
    /// Protocol work.
    pub protocol: SimDuration,
    /// Signal-handler time.
    pub signal: SimDuration,
    /// NIC-processor time (not host CPU).
    pub nic: SimDuration,
}

impl CpuWindow {
    /// Everything that occupied the *host* CPU during the window.
    pub fn host_total(&self) -> SimDuration {
        self.application + self.polling + self.protocol + self.signal
    }

    /// Host plus NIC time.
    pub fn total(&self) -> SimDuration {
        self.host_total() + self.nic
    }
}

/// Accumulates CPU time charged to a simulated node.
#[derive(Debug, Clone, Default)]
pub struct CpuMeter {
    total: SimDuration,
    by_category: [SimDuration; NUM_CATEGORIES],
    window_open: bool,
    window_start: [SimDuration; NUM_CATEGORIES],
    trace: TraceHandle,
}

impl CpuMeter {
    /// A fresh meter with nothing charged.
    pub fn new() -> Self {
        Self::default()
    }

    /// Route a copy of every future charge to `trace` as
    /// [`TraceEvent::CpuCharge`] events, so the trace-side CPU
    /// attribution reconciles with this meter by construction.
    pub fn set_tracer(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Charge `d` of CPU time under `category`.
    pub fn charge(&mut self, category: CpuCategory, d: SimDuration) {
        self.total += d;
        self.by_category[category.index()] += d;
        self.trace.emit(TraceEvent::CpuCharge {
            bucket: category.label(),
            nanos: d.as_nanos(),
        });
    }

    /// All CPU time charged since construction (host and NIC).
    pub fn total(&self) -> SimDuration {
        self.total
    }

    /// CPU time charged under one category.
    pub fn category(&self, category: CpuCategory) -> SimDuration {
        self.by_category[category.index()]
    }

    /// Open a measurement window. Only one window may be open at a time.
    pub fn window_start(&mut self) {
        debug_assert!(!self.window_open, "measurement window already open");
        self.window_open = true;
        self.window_start = self.by_category;
    }

    /// Close the window, returning the per-category CPU time charged while
    /// it was open.
    pub fn window_stop(&mut self) -> CpuWindow {
        debug_assert!(self.window_open, "no measurement window open");
        self.window_open = false;
        let d = |c: CpuCategory| self.by_category[c.index()] - self.window_start[c.index()];
        CpuWindow {
            application: d(CpuCategory::Application),
            polling: d(CpuCategory::Polling),
            protocol: d(CpuCategory::Protocol),
            signal: d(CpuCategory::SignalHandler),
            nic: d(CpuCategory::NicOffload),
        }
    }

    /// True if a measurement window is currently open.
    pub fn window_open(&self) -> bool {
        self.window_open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_us(n)
    }

    #[test]
    fn charges_accumulate_by_category() {
        let mut m = CpuMeter::new();
        m.charge(CpuCategory::Polling, us(3));
        m.charge(CpuCategory::Polling, us(2));
        m.charge(CpuCategory::Protocol, us(1));
        m.charge(CpuCategory::NicOffload, us(7));
        assert_eq!(m.total(), us(13));
        assert_eq!(m.category(CpuCategory::Polling), us(5));
        assert_eq!(m.category(CpuCategory::Protocol), us(1));
        assert_eq!(m.category(CpuCategory::NicOffload), us(7));
        assert_eq!(m.category(CpuCategory::SignalHandler), SimDuration::ZERO);
    }

    #[test]
    fn window_captures_only_enclosed_charges() {
        let mut m = CpuMeter::new();
        m.charge(CpuCategory::Application, us(10));
        m.window_start();
        m.charge(CpuCategory::Polling, us(4));
        m.charge(CpuCategory::SignalHandler, us(6));
        m.charge(CpuCategory::NicOffload, us(5));
        let w = m.window_stop();
        assert_eq!(w.polling, us(4));
        assert_eq!(w.signal, us(6));
        assert_eq!(w.nic, us(5));
        assert_eq!(w.application, SimDuration::ZERO);
        assert_eq!(w.host_total(), us(10));
        assert_eq!(w.total(), us(15));
    }

    #[test]
    fn nic_time_excluded_from_host_total() {
        let mut m = CpuMeter::new();
        m.window_start();
        m.charge(CpuCategory::NicOffload, us(100));
        m.charge(CpuCategory::Protocol, us(1));
        let w = m.window_stop();
        assert_eq!(w.host_total(), us(1));
        assert_eq!(w.total(), us(101));
    }

    #[test]
    fn consecutive_windows_are_independent() {
        let mut m = CpuMeter::new();
        m.window_start();
        m.charge(CpuCategory::Protocol, us(1));
        assert_eq!(m.window_stop().protocol, us(1));
        m.window_start();
        m.charge(CpuCategory::Protocol, us(2));
        assert_eq!(m.window_stop().protocol, us(2));
    }

    #[test]
    fn empty_window_is_zero() {
        let mut m = CpuMeter::new();
        m.window_start();
        let w = m.window_stop();
        assert_eq!(w, CpuWindow::default());
        assert!(!m.window_open());
    }

    #[test]
    fn window_open_flag_tracks_state() {
        let mut m = CpuMeter::new();
        assert!(!m.window_open());
        m.window_start();
        assert!(m.window_open());
        m.window_stop();
        assert!(!m.window_open());
    }
}
