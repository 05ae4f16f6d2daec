//! The machine cost model.
//!
//! Every CPU or transfer cost in the stack comes from this one struct so the
//! benches can do sensitivity ablations (e.g. "how does the factor of
//! improvement move with signal cost?"). Base constants are calibrated for
//! the paper's 1-GHz Pentium-III class; per-node scaling (CPU speed, PCI
//! width, LANai clock) is applied by [`crate::nic`].
//!
//! Rough 2003-era anchors: GM one-way small-message latency ~8-10 µs,
//! host-side eager send overhead ~1 µs, memcpy bandwidth ~400 MB/s on PIII,
//! Unix signal delivery a few µs, page pinning tens of µs (it is a syscall —
//! the very overhead GM's eager mode exists to avoid).

use abr_des::SimDuration;
use serde::{Deserialize, Serialize};

/// All tunable cost constants, in microseconds (per-byte costs in µs/byte).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// One pass through the MPICH progress engine (queue check, bookkeeping)
    /// even when nothing arrives. While blocked in `MPI_Recv`/`MPI_Reduce`
    /// the host burns CPU continuously; this is the granularity of that burn.
    pub poll_iteration_us: f64,
    /// Matching one incoming message against a receive queue.
    pub match_us: f64,
    /// Fixed cost of one memory copy (call overhead, cache setup).
    pub copy_base_us: f64,
    /// Per-byte memory copy cost (µs/byte). 0.0025 µs/B = 400 MB/s.
    pub copy_per_byte_us: f64,
    /// Applying a reduction operator, per element (load+op+store).
    pub reduce_op_per_elem_us: f64,
    /// Host-side cost to initiate an eager/collective send (descriptor setup;
    /// the copy into the pre-pinned bounce buffer is charged separately).
    pub eager_send_host_us: f64,
    /// Host-side cost to initiate a rendezvous control packet (RTS/CTS).
    pub rndv_control_host_us: f64,
    /// Pinning (registering) memory for DMA — a syscall.
    pub pin_us: f64,
    /// Per-byte pinning cost (page-table walking), µs/byte.
    pub pin_per_byte_us: f64,
    /// Unpinning (deregistering) memory.
    pub unpin_us: f64,
    /// LANai processing per packet (DMA setup, route lookup) at the 200-MHz
    /// LANai 9.2 clock; slower LANai revisions scale this up.
    pub nic_per_packet_us: f64,
    /// Switch traversal (cut-through crossbar) plus cable propagation.
    pub switch_us: f64,
    /// Per-byte serialization on the wire, µs/byte. 0.004 µs/B = 2 Gb/s.
    pub wire_per_byte_us: f64,
    /// PCI per-byte cost at 66 MHz / 64-bit; narrower buses scale this up.
    pub pci_per_byte_us: f64,
    /// Kernel-to-user signal delivery (the interrupt path the paper pays for
    /// late messages).
    pub signal_delivery_us: f64,
    /// Entering/leaving the signal handler on the host.
    pub signal_handler_entry_us: f64,
    /// Enabling or disabling NIC signal generation via the GM library call
    /// the paper added.
    pub signal_toggle_us: f64,
    /// Enqueue or dequeue of an application-bypass reduce descriptor.
    pub ab_descriptor_us: f64,
    /// Probing one descriptor-queue entry while matching a late message.
    pub ab_descriptor_probe_us: f64,
    /// NIC-processor cost to match one incoming collective packet against
    /// the NIC-resident descriptor table (NIC-offload extension; LANai-200
    /// baseline, scaled up for slower revisions by the driver).
    pub nic_match_us: f64,
    /// NIC-processor cost to apply the reduction operator, per element —
    /// the LANai is roughly an order of magnitude slower per element than
    /// the host, the crux of refs. \[9\]/\[11\]'s "is it beneficial?" question.
    pub nic_op_per_elem_us: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            poll_iteration_us: 0.25,
            match_us: 0.2,
            copy_base_us: 0.25,
            copy_per_byte_us: 0.002,
            reduce_op_per_elem_us: 0.04,
            eager_send_host_us: 1.2,
            rndv_control_host_us: 0.6,
            pin_us: 18.0,
            pin_per_byte_us: 0.0004,
            unpin_us: 9.0,
            nic_per_packet_us: 1.5,
            switch_us: 0.6,
            wire_per_byte_us: 0.004,
            pci_per_byte_us: 0.0019,
            signal_delivery_us: 6.0,
            signal_handler_entry_us: 1.5,
            signal_toggle_us: 0.2,
            ab_descriptor_us: 0.3,
            ab_descriptor_probe_us: 0.1,
            nic_match_us: 0.5,
            nic_op_per_elem_us: 0.35,
        }
    }
}

impl CostModel {
    /// Cost of one memory copy of `bytes` bytes.
    pub fn copy(&self, bytes: usize) -> SimDuration {
        SimDuration::from_us_f64(self.copy_base_us + self.copy_per_byte_us * bytes as f64)
    }

    /// Cost of applying a reduction operator over `elems` elements.
    pub fn reduce_op(&self, elems: usize) -> SimDuration {
        SimDuration::from_us_f64(self.reduce_op_per_elem_us * elems as f64)
    }

    /// One progress-engine poll iteration.
    pub fn poll(&self) -> SimDuration {
        SimDuration::from_us_f64(self.poll_iteration_us)
    }

    /// Matching one message against a queue.
    pub fn matching(&self) -> SimDuration {
        SimDuration::from_us_f64(self.match_us)
    }

    /// Host cost to initiate an eager-mode send (excluding the bounce copy).
    pub fn eager_send_host(&self) -> SimDuration {
        SimDuration::from_us_f64(self.eager_send_host_us)
    }

    /// Host cost to initiate a rendezvous control packet.
    pub fn rndv_control_host(&self) -> SimDuration {
        SimDuration::from_us_f64(self.rndv_control_host_us)
    }

    /// Pinning `bytes` bytes for DMA.
    pub fn pin(&self, bytes: usize) -> SimDuration {
        SimDuration::from_us_f64(self.pin_us + self.pin_per_byte_us * bytes as f64)
    }

    /// Unpinning a region.
    pub fn unpin(&self) -> SimDuration {
        SimDuration::from_us_f64(self.unpin_us)
    }

    /// Full host-side cost of taking one NIC signal (delivery + handler
    /// entry/exit). The asynchronous work done *inside* the handler is
    /// charged separately by the protocol code.
    pub fn signal_cost(&self) -> SimDuration {
        SimDuration::from_us_f64(self.signal_delivery_us + self.signal_handler_entry_us)
    }

    /// Cost of a signal that is delivered but then *ignored* because
    /// progress is already underway (Fig. 4). The kernel-to-user delivery
    /// is paid either way; only the handler body is skipped — the reason
    /// the paper still sees a latency penalty while nodes poll inside
    /// other MPI calls with signals enabled.
    pub fn signal_ignored_cost(&self) -> SimDuration {
        SimDuration::from_us_f64(self.signal_delivery_us)
    }

    /// Toggling NIC signal generation on or off.
    pub fn signal_toggle(&self) -> SimDuration {
        SimDuration::from_us_f64(self.signal_toggle_us)
    }

    /// Descriptor enqueue/dequeue.
    pub fn descriptor(&self) -> SimDuration {
        SimDuration::from_us_f64(self.ab_descriptor_us)
    }

    /// Probing `entries` descriptor-queue entries.
    pub fn descriptor_probe(&self, entries: usize) -> SimDuration {
        SimDuration::from_us_f64(self.ab_descriptor_probe_us * entries.max(1) as f64)
    }

    /// NIC-side matching of one collective packet (NIC-offload extension).
    pub fn nic_match(&self) -> SimDuration {
        SimDuration::from_us_f64(self.nic_match_us)
    }

    /// NIC-side reduction over `elems` elements.
    pub fn nic_reduce_op(&self, elems: usize) -> SimDuration {
        SimDuration::from_us_f64(self.nic_op_per_elem_us * elems as f64)
    }

    /// Optimal segment size (bytes) for pipelining a `total_bytes` message
    /// down a `depth`-deep reduction tree, per Lowery & Langou's greedy
    /// pipelining bound (PAPERS.md): for a `p`-stage pipeline with
    /// per-segment startup `alpha` and per-byte cost `beta`, total time
    /// `(m/s + p - 1)(alpha + s*beta)` is minimized at
    /// `s* = sqrt(alpha * m / ((p - 1) * beta))`.
    ///
    /// `alpha` is this model's per-packet host+NIC+switch startup and
    /// `beta` its per-byte wire + 2x PCI + copy cost. The result is
    /// clamped to `[elem_bytes, eager_limit]` (a segment must hold at
    /// least one element, and must stay on the eager path the bypass
    /// descriptors require) and rounded down to an element multiple, so
    /// every rank computes the identical size from shared configuration.
    pub fn optimal_segment_bytes(
        &self,
        total_bytes: usize,
        depth: u32,
        elem_bytes: usize,
        eager_limit: usize,
    ) -> usize {
        let alpha = self.eager_send_host_us + self.nic_per_packet_us + self.switch_us;
        let beta = self.wire_per_byte_us + 2.0 * self.pci_per_byte_us + self.copy_per_byte_us;
        let p = f64::from(depth.max(2));
        let s = (alpha * total_bytes as f64 / ((p - 1.0) * beta)).sqrt();
        let elem = elem_bytes.max(1);
        let clamped = (s as usize).clamp(elem, eager_limit.max(elem));
        (clamped / elem).max(1) * elem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_cost_scales_with_length() {
        let c = CostModel::default();
        let small = c.copy(8);
        let big = c.copy(1024);
        assert!(big > small);
        // 1 KiB at 0.002us/B = 2.048us + base
        assert!((big.as_us_f64() - (0.25 + 2.048)).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_copy_still_costs_base() {
        let c = CostModel::default();
        assert_eq!(c.copy(0).as_us_f64(), c.copy_base_us);
    }

    #[test]
    fn reduce_op_linear_in_elements() {
        let c = CostModel::default();
        assert_eq!(c.reduce_op(0), SimDuration::ZERO);
        let four = c.reduce_op(4);
        let eight = c.reduce_op(8);
        assert_eq!(eight.as_nanos(), 2 * four.as_nanos());
    }

    #[test]
    fn pinning_dwarfs_eager_overhead_for_small_messages() {
        // The reason GM (and the paper) use eager mode for small messages.
        let c = CostModel::default();
        let eager_small = c.eager_send_host() + c.copy(32);
        let rndv_small = c.pin(32) + c.unpin();
        assert!(rndv_small > eager_small * 5);
    }

    #[test]
    fn signal_cost_is_several_microseconds() {
        let c = CostModel::default();
        let s = c.signal_cost().as_us_f64();
        assert!(
            (2.0..20.0).contains(&s),
            "signal cost {s}us out of plausible range"
        );
    }

    #[test]
    fn descriptor_probe_charges_at_least_one_entry() {
        let c = CostModel::default();
        assert_eq!(c.descriptor_probe(0), c.descriptor_probe(1));
        assert!(c.descriptor_probe(10) > c.descriptor_probe(1));
    }

    #[test]
    fn optimal_segment_size_tracks_the_pipelining_bound() {
        let c = CostModel::default();
        let eager = 16 * 1024;
        // 64 KiB message, depth-4 tree, f64 elements: alpha = 3.3,
        // beta = 0.0098, s* = sqrt(3.3 * 65536 / (3 * 0.0098)) ~= 2712 ->
        // rounded down to an 8-byte multiple.
        let s = c.optimal_segment_bytes(65_536, 4, 8, eager);
        assert_eq!(s, 2712);
        // Bigger messages and shallower trees both want bigger segments.
        assert!(c.optimal_segment_bytes(1 << 22, 4, 8, eager) > s);
        assert!(c.optimal_segment_bytes(65_536, 2, 8, eager) > s);
        // Never below one element, never above the eager limit, always an
        // element multiple.
        assert_eq!(c.optimal_segment_bytes(16, 64, 8, eager), 8);
        assert_eq!(c.optimal_segment_bytes(1 << 30, 2, 8, eager), eager);
        assert_eq!(c.optimal_segment_bytes(1 << 20, 3, 24, eager) % 24, 0);
    }

    #[test]
    fn default_model_is_self_consistent() {
        let c = CostModel::default();
        // Polling for the duration of one signal is cheaper than a signal —
        // but polling for a full 1000us skew is far more expensive. This is
        // the trade-off the whole paper rests on.
        let long_wait_polls = SimDuration::from_us(1000);
        assert!(c.signal_cost() < long_wait_polls);
        assert!(c.poll() < c.signal_cost());
    }
}
