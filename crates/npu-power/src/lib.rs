//! # npu-power — power, energy, and carbon models for NPU chips
//!
//! Implements the McPAT/NeuroMeter-style modelling methodology of the paper
//! (§4.4): per-component area is derived from microarchitectural parameters
//! and the technology node, static (leakage) power follows area and the
//! node's leakage density, and dynamic energy follows per-operation energy
//! costs. Combined with the activity statistics from `npu-sim`, this yields
//! the static/dynamic energy breakdowns of Figure 3 and every downstream
//! evaluation figure.
//!
//! The crate also carries:
//!
//! * [`gating`] — the synthesized power-gating parameters of Table 3
//!   (power-on/off delays and break-even times per component), the leakage
//!   ratios of gated/sleeping logic, and the area-overhead accounting;
//! * [`carbon`] — the operational/embodied carbon model of §6.6, including
//!   the device-lifespan sweep of Figure 25.
//!
//! ## Example
//!
//! ```
//! use npu_arch::{ComponentKind, NpuGeneration, NpuSpec};
//! use npu_power::PowerModel;
//!
//! let spec = NpuSpec::generation(NpuGeneration::D);
//! let model = PowerModel::new(&spec);
//! // Peripheral logic is the biggest static-power consumer (paper §3).
//! assert!(model.static_power_w(ComponentKind::Other) > model.static_power_w(ComponentKind::Sa));
//! assert!(model.total_static_power_w() < spec.tdp_watts);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod carbon;
pub mod energy;
pub mod gating;
pub mod policy;
pub mod power;
pub mod telemetry;

pub use carbon::{CarbonModel, LifespanPoint};
pub use energy::{ComponentEnergy, EnergyBreakdown};
pub use gating::{
    ComponentGating, GatePolicy, GatedIdleSummary, GatingInconsistency, GatingParams, GatingRule,
    LeakageRatios, SramGateMode,
};
pub use policy::{
    ClockGating, DvfsScaling, IdealOff, IntervalGating, NoGating, PolicyInconsistency, PolicyRule,
    PolicyWalk, PowerPolicy, TileGrainRegating, WriteBackGating,
};
pub use power::{PowerModel, DATACENTER_PUE, NPU_DUTY_CYCLE};
pub use telemetry::{ComponentWaveform, PowerStep, PowerTimeline};
