//! NPU chip generation specifications (paper Table 2).
//!
//! NPU-A/B/C/D are derived from TPUv2/v3/v4/v5p; NPU-E is a projected
//! TPUv6p-class generation. Parameters marked with `*` in the paper are
//! inferred from public data and carried over verbatim here.

use serde::{Deserialize, Serialize};

use crate::memory::{HbmKind, SramGeometry};
use crate::topology::TorusKind;

/// Silicon technology node of an NPU generation.
///
/// The technology node drives the static-power scaling factors in the
/// `npu-power` crate (leakage per mm² grows, relatively, as feature size
/// shrinks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TechnologyNode {
    /// 16 nm FinFET (NPU-A, NPU-B).
    N16,
    /// 7 nm FinFET (NPU-C, NPU-D).
    N7,
    /// 4 nm class node (projected NPU-E).
    N4,
}

impl TechnologyNode {
    /// Relative logic area density versus the 16 nm node (higher is denser).
    ///
    /// Used by the area model: the same microarchitecture occupies
    /// `1 / density` of the 16 nm area on a newer node.
    #[must_use]
    pub fn density_vs_16nm(self) -> f64 {
        match self {
            TechnologyNode::N16 => 1.0,
            TechnologyNode::N7 => 3.3,
            TechnologyNode::N4 => 5.6,
        }
    }

    /// Relative leakage power per unit area versus the 16 nm node.
    ///
    /// Leakage per transistor shrinks more slowly than area, so leakage per
    /// mm² effectively rises on newer nodes; this captures the paper's
    /// observation that static power remains a major contributor despite
    /// FinFET/GAA-FET.
    #[must_use]
    pub fn leakage_per_area_vs_16nm(self) -> f64 {
        match self {
            TechnologyNode::N16 => 1.0,
            TechnologyNode::N7 => 1.9,
            TechnologyNode::N4 => 2.6,
        }
    }

    /// Relative dynamic energy per operation versus the 16 nm node
    /// (lower is better).
    #[must_use]
    pub fn dynamic_energy_vs_16nm(self) -> f64 {
        match self {
            TechnologyNode::N16 => 1.0,
            TechnologyNode::N7 => 0.52,
            TechnologyNode::N4 => 0.38,
        }
    }
}

impl std::fmt::Display for TechnologyNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TechnologyNode::N16 => write!(f, "16nm"),
            TechnologyNode::N7 => write!(f, "7nm"),
            TechnologyNode::N4 => write!(f, "4nm"),
        }
    }
}

/// NPU chip generation identifier (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NpuGeneration {
    /// NPU-A, derived from TPUv2 (2017, 16 nm).
    A,
    /// NPU-B, derived from TPUv3 (2018, 16 nm).
    B,
    /// NPU-C, derived from TPUv4 (2020, 7 nm).
    C,
    /// NPU-D, derived from TPUv5p (2023, 7 nm).
    D,
    /// NPU-E, a projected TPUv6p-class generation (4 nm).
    E,
}

impl NpuGeneration {
    /// All generations in deployment order.
    pub const ALL: [NpuGeneration; 5] =
        [NpuGeneration::A, NpuGeneration::B, NpuGeneration::C, NpuGeneration::D, NpuGeneration::E];

    /// The four generations evaluated in the paper's characterization (§3),
    /// which excludes the projected NPU-E.
    pub const DEPLOYED: [NpuGeneration; 4] =
        [NpuGeneration::A, NpuGeneration::B, NpuGeneration::C, NpuGeneration::D];

    /// Single-letter label used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NpuGeneration::A => "A",
            NpuGeneration::B => "B",
            NpuGeneration::C => "C",
            NpuGeneration::D => "D",
            NpuGeneration::E => "E",
        }
    }
}

impl std::fmt::Display for NpuGeneration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NPU-{}", self.label())
    }
}

/// Full architectural specification of one NPU generation.
///
/// Field values follow Table 2 of the paper. Derived quantities (peak FLOPs,
/// bandwidth in bytes/cycle, …) are provided as methods so that every crate
/// computes them consistently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NpuSpec {
    /// Which generation this spec describes.
    pub generation: NpuGeneration,
    /// First deployment year (`None` for the projected NPU-E).
    pub deployment_year: Option<u32>,
    /// Silicon technology node.
    pub technology: TechnologyNode,
    /// Core clock frequency in MHz.
    pub frequency_mhz: u64,
    /// Width of a (square) systolic array in processing elements.
    pub sa_width: usize,
    /// Number of systolic arrays per chip.
    pub num_sa: usize,
    /// Number of vector units per chip.
    pub num_vu: usize,
    /// SIMD lanes per vector unit (the paper's VUs are 8×128 SIMD units).
    pub vu_lanes: usize,
    /// Sub-lanes per SIMD lane (8 in the 8×128 configuration).
    pub vu_sublanes: usize,
    /// On-chip SRAM (scratchpad) capacity in MiB.
    pub sram_mib: usize,
    /// Kind of HBM attached to the chip.
    pub hbm_kind: HbmKind,
    /// HBM bandwidth in GB/s.
    pub hbm_bandwidth_gbps: f64,
    /// HBM capacity in GiB.
    pub hbm_gib: usize,
    /// Inter-chip-interconnect bandwidth per link in GB/s.
    pub ici_link_gbps: f64,
    /// Number of ICI links per chip.
    pub ici_links: usize,
    /// Pod topology formed by the ICI links.
    pub ici_topology: TorusKind,
    /// Thermal design power of the chip in watts (inferred from public data).
    pub tdp_watts: f64,
}

impl NpuSpec {
    /// Returns the specification of a given NPU generation (paper Table 2).
    #[must_use]
    pub fn generation(generation: NpuGeneration) -> Self {
        match generation {
            NpuGeneration::A => NpuSpec {
                generation,
                deployment_year: Some(2017),
                technology: TechnologyNode::N16,
                frequency_mhz: 700,
                sa_width: 128,
                num_sa: 2,
                num_vu: 4,
                vu_lanes: 128,
                vu_sublanes: 8,
                sram_mib: 32,
                hbm_kind: HbmKind::Hbm2,
                hbm_bandwidth_gbps: 600.0,
                hbm_gib: 16,
                ici_link_gbps: 62.0,
                ici_links: 4,
                ici_topology: TorusKind::Torus2D,
                tdp_watts: 280.0,
            },
            NpuGeneration::B => NpuSpec {
                generation,
                deployment_year: Some(2018),
                technology: TechnologyNode::N16,
                frequency_mhz: 940,
                sa_width: 128,
                num_sa: 4,
                num_vu: 4,
                vu_lanes: 128,
                vu_sublanes: 8,
                sram_mib: 32,
                hbm_kind: HbmKind::Hbm2,
                hbm_bandwidth_gbps: 900.0,
                hbm_gib: 32,
                ici_link_gbps: 70.0,
                ici_links: 4,
                ici_topology: TorusKind::Torus2D,
                tdp_watts: 450.0,
            },
            NpuGeneration::C => NpuSpec {
                generation,
                deployment_year: Some(2020),
                technology: TechnologyNode::N7,
                frequency_mhz: 1050,
                sa_width: 128,
                num_sa: 8,
                num_vu: 4,
                vu_lanes: 128,
                vu_sublanes: 8,
                sram_mib: 128,
                hbm_kind: HbmKind::Hbm2,
                hbm_bandwidth_gbps: 1200.0,
                hbm_gib: 32,
                ici_link_gbps: 50.0,
                ici_links: 4,
                ici_topology: TorusKind::Torus2D,
                tdp_watts: 300.0,
            },
            NpuGeneration::D => NpuSpec {
                generation,
                deployment_year: Some(2023),
                technology: TechnologyNode::N7,
                frequency_mhz: 1750,
                sa_width: 128,
                num_sa: 8,
                num_vu: 6,
                vu_lanes: 128,
                vu_sublanes: 8,
                sram_mib: 128,
                hbm_kind: HbmKind::Hbm2e,
                hbm_bandwidth_gbps: 2765.0,
                hbm_gib: 95,
                ici_link_gbps: 100.0,
                ici_links: 6,
                ici_topology: TorusKind::Torus3D,
                tdp_watts: 500.0,
            },
            NpuGeneration::E => NpuSpec {
                generation,
                deployment_year: None,
                technology: TechnologyNode::N4,
                frequency_mhz: 2000,
                sa_width: 256,
                num_sa: 8,
                num_vu: 8,
                vu_lanes: 128,
                vu_sublanes: 8,
                sram_mib: 256,
                hbm_kind: HbmKind::Hbm3e,
                hbm_bandwidth_gbps: 7400.0,
                hbm_gib: 192,
                ici_link_gbps: 150.0,
                ici_links: 6,
                ici_topology: TorusKind::Torus3D,
                tdp_watts: 700.0,
            },
        }
    }

    /// Clock frequency in Hz.
    #[must_use]
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_mhz as f64 * 1.0e6
    }

    /// Duration of one clock cycle in seconds.
    #[must_use]
    pub fn cycle_seconds(&self) -> f64 {
        1.0 / self.frequency_hz()
    }

    /// Converts a cycle count into seconds on this chip.
    #[must_use]
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 * self.cycle_seconds()
    }

    /// Converts a duration in seconds into (rounded-up) cycles on this chip.
    #[must_use]
    pub fn seconds_to_cycles(&self, seconds: f64) -> u64 {
        (seconds * self.frequency_hz()).ceil() as u64
    }

    /// Number of processing elements in one systolic array.
    #[must_use]
    pub fn pes_per_sa(&self) -> usize {
        self.sa_width * self.sa_width
    }

    /// Number of processing elements in the whole chip.
    #[must_use]
    pub fn total_pes(&self) -> usize {
        self.pes_per_sa() * self.num_sa
    }

    /// Peak dense-matmul throughput of the chip in FLOP/s.
    ///
    /// Each PE performs one multiply-accumulate (2 FLOPs) per cycle.
    #[must_use]
    pub fn peak_flops(&self) -> f64 {
        2.0 * self.total_pes() as f64 * self.frequency_hz()
    }

    /// Peak vector-unit throughput of the chip in FLOP/s.
    ///
    /// Each VU lane performs one FLOP per cycle per sublane.
    #[must_use]
    pub fn peak_vu_flops(&self) -> f64 {
        (self.num_vu * self.vu_lanes * self.vu_sublanes) as f64 * self.frequency_hz()
    }

    /// Vector elements processed per VU per cycle (lanes × sublanes).
    #[must_use]
    pub fn vu_elems_per_cycle(&self) -> usize {
        self.vu_lanes * self.vu_sublanes
    }

    /// HBM bandwidth in bytes per core cycle.
    #[must_use]
    pub fn hbm_bytes_per_cycle(&self) -> f64 {
        self.hbm_bandwidth_gbps * 1.0e9 / self.frequency_hz()
    }

    /// Aggregate ICI bandwidth of the chip in GB/s (all links combined).
    #[must_use]
    pub fn ici_total_gbps(&self) -> f64 {
        self.ici_link_gbps * self.ici_links as f64
    }

    /// On-chip SRAM capacity in bytes.
    #[must_use]
    pub fn sram_bytes(&self) -> u64 {
        self.sram_mib as u64 * 1024 * 1024
    }

    /// HBM capacity in bytes.
    #[must_use]
    pub fn hbm_bytes(&self) -> u64 {
        self.hbm_gib as u64 * 1024 * 1024 * 1024
    }

    /// Default SRAM segment geometry (4 KiB segments, the vector-register
    /// size of the paper's NPU).
    #[must_use]
    pub fn sram_geometry(&self) -> SramGeometry {
        SramGeometry::new(self.sram_bytes(), 4096)
    }

    /// Arithmetic-intensity ridge point of the chip in FLOP/byte: operators
    /// below this ratio are HBM-bandwidth-bound, operators above it are
    /// compute-bound.
    #[must_use]
    pub fn ridge_point(&self) -> f64 {
        self.peak_flops() / (self.hbm_bandwidth_gbps * 1.0e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values_match_paper() {
        let a = NpuSpec::generation(NpuGeneration::A);
        assert_eq!(a.frequency_mhz, 700);
        assert_eq!(a.num_sa, 2);
        assert_eq!(a.num_vu, 4);
        assert_eq!(a.sram_mib, 32);
        assert_eq!(a.hbm_gib, 16);
        assert_eq!(a.ici_links, 4);
        assert_eq!(a.technology, TechnologyNode::N16);

        let b = NpuSpec::generation(NpuGeneration::B);
        assert_eq!(b.frequency_mhz, 940);
        assert_eq!(b.num_sa, 4);
        assert_eq!(b.hbm_bandwidth_gbps, 900.0);

        let c = NpuSpec::generation(NpuGeneration::C);
        assert_eq!(c.frequency_mhz, 1050);
        assert_eq!(c.num_sa, 8);
        assert_eq!(c.sram_mib, 128);
        assert_eq!(c.technology, TechnologyNode::N7);

        let d = NpuSpec::generation(NpuGeneration::D);
        assert_eq!(d.frequency_mhz, 1750);
        assert_eq!(d.num_vu, 6);
        assert_eq!(d.hbm_gib, 95);
        assert_eq!(d.ici_links, 6);
        assert_eq!(d.ici_topology, TorusKind::Torus3D);

        let e = NpuSpec::generation(NpuGeneration::E);
        assert_eq!(e.sa_width, 256);
        assert_eq!(e.sram_mib, 256);
        assert_eq!(e.hbm_bandwidth_gbps, 7400.0);
        assert_eq!(e.technology, TechnologyNode::N4);
        assert!(e.deployment_year.is_none());
    }

    #[test]
    fn peak_flops_increases_across_generations() {
        let mut prev = 0.0;
        for generation in NpuGeneration::ALL {
            let flops = NpuSpec::generation(generation).peak_flops();
            assert!(flops > prev, "{generation} peak FLOPs {flops} should exceed previous {prev}");
            prev = flops;
        }
    }

    #[test]
    fn npu_d_peak_flops_is_tpu_v5p_class() {
        // TPUv5p is ~459 bf16 TFLOPs; 8 SAs x 128x128 x 2 x 1.75 GHz = 459 TFLOPs.
        let d = NpuSpec::generation(NpuGeneration::D);
        let tflops = d.peak_flops() / 1e12;
        assert!((tflops - 458.75).abs() < 1.0, "got {tflops}");
    }

    #[test]
    fn cycle_conversions_roundtrip() {
        let d = NpuSpec::generation(NpuGeneration::D);
        let cycles = 1_750_000; // one millisecond at 1.75 GHz
        let secs = d.cycles_to_seconds(cycles);
        assert!((secs - 1e-3).abs() < 1e-9);
        assert_eq!(d.seconds_to_cycles(secs), cycles);
    }

    #[test]
    fn ridge_point_is_reasonable() {
        // NPU-D: 459 TFLOPs / 2765 GB/s ≈ 166 FLOP/byte.
        let d = NpuSpec::generation(NpuGeneration::D);
        let ridge = d.ridge_point();
        assert!(ridge > 100.0 && ridge < 250.0, "ridge {ridge}");
    }

    #[test]
    fn hbm_bytes_per_cycle() {
        let a = NpuSpec::generation(NpuGeneration::A);
        // 600 GB/s at 700 MHz ≈ 857 bytes/cycle.
        assert!((a.hbm_bytes_per_cycle() - 857.14).abs() < 1.0);
    }

    #[test]
    fn display_labels() {
        assert_eq!(NpuGeneration::C.to_string(), "NPU-C");
        assert_eq!(TechnologyNode::N7.to_string(), "7nm");
    }

    #[test]
    fn technology_scaling_monotonic() {
        assert!(TechnologyNode::N7.density_vs_16nm() > TechnologyNode::N16.density_vs_16nm());
        assert!(TechnologyNode::N4.density_vs_16nm() > TechnologyNode::N7.density_vs_16nm());
        assert!(
            TechnologyNode::N4.dynamic_energy_vs_16nm()
                < TechnologyNode::N7.dynamic_energy_vs_16nm()
        );
        assert!(
            TechnologyNode::N4.leakage_per_area_vs_16nm()
                > TechnologyNode::N16.leakage_per_area_vs_16nm()
        );
    }

    #[test]
    fn sram_geometry_segments() {
        let d = NpuSpec::generation(NpuGeneration::D);
        let geometry = d.sram_geometry();
        assert_eq!(geometry.segment_bytes(), 4096);
        assert_eq!(geometry.num_segments() as u64 * 4096, d.sram_bytes());
    }
}
