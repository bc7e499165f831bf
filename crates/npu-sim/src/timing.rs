//! Per-operator activity records produced by the simulator.

use serde::{Deserialize, Serialize};

use npu_models::ExecutionUnit;

/// What one executed (anchor) operator ran on and how much work it did —
/// everything about it that no release vector changes.
///
/// A [`crate::PreparedSimulator`] builds these once and every replay
/// shares them ([`crate::SimulationResult::timings`]); *when* the
/// operator ran is the release-dependent half, the
/// [`crate::timeline::ScheduledOp`] at the same index of
/// [`crate::SimulationResult::schedule`]. The SA active-cycle count is the
/// operator's own SA phase length, clamped to its serial cost; a run's
/// busy time per unit lives in its resource tracks
/// ([`crate::SimulationResult::resource_timeline`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpTiming {
    /// Anchor position of the operator: its index in
    /// [`crate::SimulationResult::timings`] and
    /// [`crate::SimulationResult::schedule`].
    pub op_index: usize,
    /// Operator name.
    pub name: String,
    /// Execution unit the operator ran on.
    pub unit: ExecutionUnit,
    /// What the operator would cost in isolation on the old serial engine
    /// (intra-operator overlap only). The sum of these over a graph is the
    /// serial baseline the overlapped makespan is compared against.
    pub serial_duration_cycles: u64,
    /// Cycles during which at least one systolic array was computing.
    pub sa_active_cycles: u64,
    /// Average fraction of processing elements doing useful work while the
    /// systolic arrays were active (the paper's SA *spatial* utilization,
    /// Figure 5). Zero when the SA was unused.
    pub sa_spatial_utilization: f64,
    /// Bytes moved over HBM by this operator.
    pub hbm_bytes: u64,
    /// Bytes moved over the ICI by this operator.
    pub ici_bytes: u64,
    /// Floating-point operations performed.
    pub flops: f64,
    /// SRAM bytes live (allocated) while the operator executed.
    pub sram_live_bytes: u64,
    /// SRAM demand of the operator in bytes (unbounded by capacity).
    pub sram_demand_bytes: u64,
}
