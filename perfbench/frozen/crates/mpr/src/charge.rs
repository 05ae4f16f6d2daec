//! CPU-cost accounting passed from the sans-I/O engine to the drivers.
//!
//! The engine computes *base* costs from the [`abr_gm::CostModel`]; the
//! driver scales them by the node's CPU class and turns them into virtual
//! time (DES) or simply records them (live runtime).

use abr_des::meter::CpuCategory;
use abr_des::SimDuration;

/// Accumulated CPU charges by category, drained by the driver after every
/// engine entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Charges {
    /// Progress-engine polling overhead.
    pub polling: SimDuration,
    /// Protocol work: matching, copies, reduction arithmetic, send setup.
    pub protocol: SimDuration,
    /// Signal delivery and asynchronous-handler work.
    pub signal: SimDuration,
    /// Work performed on the NIC processor (NIC-offload extension) — not
    /// host CPU time; the driver accounts it separately and in parallel.
    pub nic: SimDuration,
}

impl Charges {
    /// No charges.
    pub const ZERO: Charges = Charges {
        polling: SimDuration::ZERO,
        protocol: SimDuration::ZERO,
        signal: SimDuration::ZERO,
        nic: SimDuration::ZERO,
    };

    /// Add a charge under `category`. `Application` time never originates in
    /// the engine and is folded into `protocol` defensively.
    pub fn add(&mut self, category: CpuCategory, d: SimDuration) {
        match category {
            CpuCategory::Polling => self.polling += d,
            CpuCategory::Protocol | CpuCategory::Application => self.protocol += d,
            CpuCategory::SignalHandler => self.signal += d,
            CpuCategory::NicOffload => self.nic += d,
        }
    }

    /// Total host CPU across categories (NIC time excluded: it runs on the
    /// NIC processor concurrently with the host).
    pub fn total(&self) -> SimDuration {
        self.polling + self.protocol + self.signal
    }

    /// True when nothing has been charged (host or NIC).
    pub fn is_zero(&self) -> bool {
        self.total().is_zero() && self.nic.is_zero()
    }

    /// Take the current charges, leaving zero behind.
    pub fn take(&mut self) -> Charges {
        std::mem::take(self)
    }

    /// Merge another set of charges into this one.
    pub fn merge(&mut self, other: Charges) {
        self.polling += other.polling;
        self.protocol += other.protocol;
        self.signal += other.signal;
        self.nic += other.nic;
    }

    /// Scale every host category (per-node CPU class); the NIC component is
    /// left alone — it scales with the NIC clock, which the driver applies.
    pub fn scaled_f64(&self, factor: f64) -> Charges {
        Charges {
            polling: self.polling.scaled_f64(factor),
            protocol: self.protocol.scaled_f64(factor),
            signal: self.signal.scaled_f64(factor),
            nic: self.nic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_us(n)
    }

    #[test]
    fn add_routes_by_category() {
        let mut c = Charges::ZERO;
        c.add(CpuCategory::Polling, us(1));
        c.add(CpuCategory::Protocol, us(2));
        c.add(CpuCategory::SignalHandler, us(3));
        c.add(CpuCategory::Application, us(4)); // folded into protocol
        assert_eq!(c.polling, us(1));
        assert_eq!(c.protocol, us(6));
        assert_eq!(c.signal, us(3));
        assert_eq!(c.total(), us(10));
    }

    #[test]
    fn take_resets() {
        let mut c = Charges::ZERO;
        c.add(CpuCategory::Polling, us(5));
        let taken = c.take();
        assert_eq!(taken.total(), us(5));
        assert!(c.is_zero());
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = Charges::ZERO;
        a.add(CpuCategory::Polling, us(1));
        let mut b = Charges::ZERO;
        b.add(CpuCategory::SignalHandler, us(2));
        a.merge(b);
        assert_eq!(a.polling, us(1));
        assert_eq!(a.signal, us(2));
    }

    #[test]
    fn scaling_applies_to_every_category() {
        let mut c = Charges::ZERO;
        c.add(CpuCategory::Polling, us(2));
        c.add(CpuCategory::Protocol, us(4));
        c.add(CpuCategory::SignalHandler, us(6));
        let s = c.scaled_f64(1.5);
        assert_eq!(s.polling, us(3));
        assert_eq!(s.protocol, us(6));
        assert_eq!(s.signal, us(9));
    }

    #[test]
    fn zero_is_zero() {
        assert!(Charges::ZERO.is_zero());
        let mut c = Charges::ZERO;
        c.add(CpuCategory::Polling, SimDuration::ZERO);
        assert!(c.is_zero());
    }
}
