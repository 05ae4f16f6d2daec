//! Node hardware classes and the crossbar path cost they imply.
//!
//! The paper's testbed (§VI) mixes two node flavours behind one 32-port
//! Myrinet-2000 switch:
//!
//! * 16 × quad-SMP 700-MHz Pentium-III, 66-MHz/64-bit PCI, LANai 9.1,
//! * 16 × dual-SMP 1-GHz Pentium-III, 33-MHz/32-bit PCI, LANai 9.1
//!   (four of them LANai 9.2 at 200 MHz).
//!
//! Only one processor per node is used, so the SMP widths are irrelevant;
//! what matters is CPU clock (scales protocol CPU costs), PCI bandwidth and
//! LANai clock (scale transfer segments). [`PathCost`] turns the two
//! endpoints' hardware and a packet size into the uncontended crossbar
//! path; the stateful delivery model (NIC clocks, FIFO order, shared
//! links) is `abr_fabric::FabricNetwork`.

use crate::cost::CostModel;
use abr_des::SimDuration;
use serde::{Deserialize, Serialize};

/// PCI bus class of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PciClass {
    /// 66 MHz / 64-bit — the 700-MHz nodes' wide bus (~528 MB/s burst).
    Mhz66Bit64,
    /// 33 MHz / 32-bit — the 1-GHz nodes' narrow bus (~132 MB/s burst).
    Mhz33Bit32,
}

impl PciClass {
    /// Multiplier on the base (66 MHz/64-bit) per-byte PCI cost.
    pub fn per_byte_scale(self) -> f64 {
        match self {
            PciClass::Mhz66Bit64 => 1.0,
            PciClass::Mhz33Bit32 => 4.0, // half clock x half width
        }
    }
}

/// LANai (Myrinet NIC processor) revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LanaiClass {
    /// LANai 9.1 at 133 MHz (PCI64B cards; 28 of the 32 nodes).
    L91At133,
    /// LANai 9.2 at 200 MHz (PCI64C cards; 4 of the 1-GHz nodes).
    L92At200,
}

impl LanaiClass {
    /// Multiplier on the base (200 MHz) per-packet NIC processing cost.
    pub fn per_packet_scale(self) -> f64 {
        match self {
            LanaiClass::L91At133 => 200.0 / 133.0,
            LanaiClass::L92At200 => 1.0,
        }
    }
}

/// The hardware profile of one node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeHw {
    /// Multiplier on protocol CPU costs (1.0 = the 1-GHz reference class).
    pub cpu_scale: f64,
    /// PCI bus class.
    pub pci: PciClass,
    /// NIC processor revision.
    pub lanai: LanaiClass,
}

impl NodeHw {
    /// The 700-MHz quad-SMP flavour: slower CPU, wide PCI, LANai 9.1.
    pub fn p3_700() -> Self {
        NodeHw {
            cpu_scale: 1000.0 / 700.0,
            pci: PciClass::Mhz66Bit64,
            lanai: LanaiClass::L91At133,
        }
    }

    /// The 1-GHz dual-SMP flavour with the common PCI64B card (LANai 9.1).
    pub fn p3_1000() -> Self {
        NodeHw {
            cpu_scale: 1.0,
            pci: PciClass::Mhz33Bit32,
            lanai: LanaiClass::L91At133,
        }
    }

    /// The 1-GHz flavour with the PCI64C card (LANai 9.2 at 200 MHz); the
    /// testbed had four of these.
    pub fn p3_1000_l92() -> Self {
        NodeHw {
            cpu_scale: 1.0,
            pci: PciClass::Mhz33Bit32,
            lanai: LanaiClass::L92At200,
        }
    }

    /// Scale a base CPU cost by this node's CPU clock.
    pub fn scale_cpu(&self, d: SimDuration) -> SimDuration {
        d.scaled_f64(self.cpu_scale)
    }
}

/// One packet's uncontended path through the crossbar, stage by stage,
/// in microseconds: the five delivery segments a trace reports.
///
/// This is the crossbar formula: the source PCI DMA and LANai processing
/// inject the packet (and occupy the source NIC), one switch traversal
/// plus the bytes at host-link rate cross the wire, and the destination
/// LANai and PCI DMA hand it to the host. Contended fabrics reuse it for
/// same-node pairs and reuse its endpoint stages on routed paths.
#[derive(Debug, Clone, Copy)]
pub struct PathCost {
    /// Source PCI DMA.
    pub src_pci: f64,
    /// Source LANai processing.
    pub src_nic: f64,
    /// One switch traversal plus the bytes at host-link rate.
    pub wire: f64,
    /// Destination LANai processing.
    pub dst_nic: f64,
    /// Destination PCI DMA.
    pub dst_pci: f64,
}

impl PathCost {
    /// The stages of a `wire_bytes`-byte packet from `src` hardware to
    /// `dst` hardware under `cost`.
    #[inline]
    pub fn new(cost: &CostModel, src: &NodeHw, dst: &NodeHw, wire_bytes: u32) -> Self {
        let bytes = f64::from(wire_bytes);
        PathCost {
            src_pci: cost.pci_per_byte_us * src.pci.per_byte_scale() * bytes,
            src_nic: cost.nic_per_packet_us * src.lanai.per_packet_scale(),
            wire: cost.switch_us + cost.wire_per_byte_us * bytes,
            dst_nic: cost.nic_per_packet_us * dst.lanai.per_packet_scale(),
            dst_pci: cost.pci_per_byte_us * dst.pci.per_byte_scale() * bytes,
        }
    }

    /// The injection (source-side) portion: source PCI plus LANai. This
    /// occupies the source NIC exclusively.
    #[inline]
    pub fn tx(&self) -> SimDuration {
        SimDuration::from_us_f64(self.src_pci + self.src_nic)
    }

    /// The whole path, ignoring any serialization: source PCI + source
    /// NIC + switch/wire + destination NIC + destination PCI.
    #[inline]
    pub fn total(&self) -> SimDuration {
        SimDuration::from_us_f64(
            self.src_pci + self.src_nic + self.wire + self.dst_nic + self.dst_pci,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::HEADER_WIRE_BYTES;

    fn delay(src: &NodeHw, dst: &NodeHw, len: u32) -> SimDuration {
        PathCost::new(&CostModel::default(), src, dst, len + HEADER_WIRE_BYTES).total()
    }

    #[test]
    fn narrow_pci_is_slower() {
        let wide = NodeHw::p3_700();
        let narrow = NodeHw::p3_1000();
        assert!(delay(&narrow, &narrow, 1024) > delay(&wide, &wide, 1024));
    }

    #[test]
    fn older_lanai_is_slower() {
        let l91 = NodeHw::p3_1000();
        let l92 = NodeHw::p3_1000_l92();
        assert!(delay(&l91, &l91, 8) > delay(&l92, &l92, 8));
    }

    #[test]
    fn small_message_latency_is_2003_plausible() {
        let hw = NodeHw::p3_700();
        let d = delay(&hw, &hw, 8).as_us_f64();
        assert!(
            (2.0..12.0).contains(&d),
            "8-byte path latency {d}us is implausible for Myrinet-2000"
        );
    }

    #[test]
    fn larger_packets_take_longer() {
        let hw = NodeHw::p3_700();
        assert!(delay(&hw, &hw, 1024) > delay(&hw, &hw, 8));
    }

    #[test]
    fn cpu_scaling_on_node_hw() {
        let slow = NodeHw::p3_700();
        let fast = NodeHw::p3_1000();
        let base = SimDuration::from_us(7);
        assert!(slow.scale_cpu(base) > fast.scale_cpu(base));
        assert_eq!(fast.scale_cpu(base), base);
    }
}
