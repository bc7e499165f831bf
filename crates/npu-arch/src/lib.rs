//! # npu-arch — NPU hardware architecture description
//!
//! This crate describes the hardware of a TPU-like neural processing unit
//! (NPU) as used by the ReGate reproduction: chip generations, the
//! components inside a chip (systolic arrays, vector units, SRAM, HBM, ICI,
//! DMA engine), pod topologies, multi-chip parallelism configurations, and
//! the service-level-objective (SLO) model used to select chip counts.
//!
//! The numbers follow Table 2 of the paper ("NPU specifications used in our
//! study"): NPU-A/B/C/D are derived from TPUv2/3/4/5p and NPU-E is a
//! projected TPUv6p-class part.
//!
//! It also hosts [`JsonWriter`], the std-only writer behind every JSON
//! export in the workspace: it is shared by every crate and belongs to no
//! model layer.
//!
//! ## Example
//!
//! ```
//! use npu_arch::{NpuGeneration, NpuSpec};
//!
//! let d = NpuSpec::generation(NpuGeneration::D);
//! assert_eq!(d.frequency_mhz, 1750);
//! assert_eq!(d.num_sa, 8);
//! // Peak dense matmul throughput in FLOP/s (two ops per MAC).
//! assert!(d.peak_flops() > 4.5e14);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chip;
pub mod component;
pub mod json;
pub mod memory;
pub mod parallelism;
pub mod slo;
pub mod spec;
pub mod topology;

pub use chip::ChipConfig;
pub use component::{ComponentId, ComponentKind, PowerDomain};
pub use json::JsonWriter;
pub use memory::{HbmKind, SramGeometry};
pub use parallelism::{ParallelismConfig, ShardingAxis};
pub use slo::{SloSpec, SloTarget};
pub use spec::{NpuGeneration, NpuSpec, TechnologyNode};
pub use topology::{FabricKind, Link, LinkGraph, PodTopology, TorusKind};
