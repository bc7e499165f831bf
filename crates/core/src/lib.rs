//! # regate — fine-grained power gating for neural processing units
//!
//! This crate is the reproduction of the paper's primary contribution:
//! ReGate, a hardware/software co-design that power gates every major
//! component of an NPU chip — systolic arrays at processing-element
//! granularity, vector units, the SRAM scratchpad at 4 KiB-segment
//! granularity, and the HBM/ICI controllers — with hardware idle detection
//! by default and compiler-directed `setpm` instructions where software has
//! better information (§4).
//!
//! The crate provides:
//!
//! * [`pe_gating`] — the cycle-level, spatially power-gated systolic array:
//!   non-zero-weight row/column masks with OR-prefix sums (Figure 12) and
//!   diagonal `PE_on` propagation along the dataflow (Figure 13);
//! * [`designs`] — the evaluated design points: `NoPG`, `ReGate-Base`,
//!   `ReGate-HW`, `ReGate-Full`, and the `Ideal` roofline;
//! * [`evaluate`] — the end-to-end evaluation engine: workload → compile →
//!   simulate → per-design energy/power/performance/carbon;
//! * [`policy`] — pluggable power-management policy selection: a policy
//!   kind is a component→[`npu_power::PowerPolicy`] table; the five design
//!   points are presets of it, next to clock gating, DVFS,
//!   drowsy-everywhere, tile-grain re-gating, contents-aware SRAM
//!   write-back, and whole-chip gating;
//! * [`experiments`] — generators for every table and figure of the paper's
//!   characterization (§3) and evaluation (§6) sections.
//!
//! ## Example
//!
//! ```
//! use npu_arch::NpuGeneration;
//! use npu_models::{DlrmSize, Workload};
//! use regate::{Design, Evaluator};
//!
//! let evaluator = Evaluator::new(NpuGeneration::D);
//! let eval = evaluator.evaluate(&Workload::dlrm(DlrmSize::Small), 8);
//! let savings = eval.energy_savings(Design::ReGateFull);
//! assert!(savings > 0.10, "ReGate-Full should save >10% on DLRM, got {savings}");
//! assert!(eval.performance_overhead(Design::ReGateFull) < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod designs;
pub mod evaluate;
pub mod experiments;
pub mod pe_gating;
pub mod pod;
pub mod policy;

pub use designs::Design;
pub use evaluate::{Evaluator, PolicyEvaluation, PolicySetEvaluation, WorkloadEvaluation};
pub use pe_gating::{PeMode, SaGatingPlan};
pub use pod::{pod_static_gating, PodGatingReport};
pub use policy::{IdleLeakModel, PolicyConfig, PolicyKind, SaActiveMode};
