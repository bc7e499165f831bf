//! Power-management policy selection for the evaluation engine.
//!
//! [`PolicyKind`] names a chip-wide power-management strategy; its
//! [`config`](PolicyKind::config) method expands the name into a
//! [`PolicyConfig`]: a table from [`ComponentKind`] to the
//! [`npu_power::PowerPolicy`] that walks that component's idle gaps, plus
//! the systolic array's active-period rate and the out-of-duty-cycle
//! leakage treatment. [`crate::Evaluator`] prices every component through
//! its table entry over the simulated timeline; a component with no entry
//! runs at full static power for the whole trace. The five ReGate design
//! points of the paper are *presets* of the same table
//! ([`PolicyKind::Preset`]); the extended kinds price the neighbouring
//! design space (clock gating, DVFS, drowsy-everywhere, tile-grain
//! re-gating, contents-aware SRAM write-back, whole-chip gating) on the
//! *same* timeline so the comparison is apples to apples.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use npu_arch::{ComponentKind, NpuSpec};
use npu_power::{
    ClockGating, ComponentGating, DvfsScaling, GatePolicy, GatingParams, IdealOff, IntervalGating,
    NoGating, PolicyInconsistency, PolicyWalk, PowerPolicy, SramGateMode, TileGrainRegating,
    WriteBackGating,
};
use npu_sim::CycleInterval;

use crate::designs::Design;

/// The components with their own busy timeline, each walked by its own
/// idle-interval policy; their union idleness is the whole-chip idleness.
pub const TIMELINE_UNITS: [ComponentKind; 5] = [
    ComponentKind::Sa,
    ComponentKind::Vu,
    ComponentKind::Hbm,
    ComponentKind::Ici,
    ComponentKind::Dma,
];

/// A named chip-wide power-management strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// One of the paper's named design points (NoPG, ReGate-Base/-HW/
    /// -Full, Ideal), evaluated with the original preset arithmetic.
    Preset(Design),
    /// AUTOGATE-style clock gating: the clock tree stops instantly on
    /// idleness at zero transition cost, saving the clock/dynamic share
    /// of idle power while leakage survives as `residual`.
    ClockGating {
        /// Fraction of idle power that survives (the leakage share).
        residual: f64,
    },
    /// Race-to-idle DVFS: idle intervals are spent at a reduced
    /// voltage/frequency point, scaling their cost by `scale` instead of
    /// emptying them. No transition cost, no exposed latency.
    Dvfs {
        /// Idle-interval cost multiplier in `(0, 1]`.
        scale: f64,
    },
    /// Data-retaining sleep on *every* gateable component: logic reuses
    /// the SRAM drowsy mode's short break-even time and residual, with
    /// wake-ups hidden under the access pipeline (no exposed latency,
    /// but a 25% residual instead of the 3% of a full power-off).
    DrowsyEverywhere,
    /// ReGate-Base with tile-granular re-gating *inside* bursts (the
    /// Figure 19 overhead edge), on the systolic array and the vector
    /// units: wake-ups expose one tile's delay instead of the full
    /// unit's, at the price of one extra transition pair per gated
    /// interval.
    TileGrainBase,
    /// ReGate-Full with a contents-aware SRAM power-off that streams
    /// dirty segments back to HBM before cutting power, lifting the
    /// "only provably-dead segments" restriction.
    ContentsAwareFull,
    /// ReGate-Full plus *chip-level* gating: intervals in which every
    /// tracked component of the chip is simultaneously idle (the
    /// pipeline-stage bubbles of multi-chip serving) gate the whole chip
    /// — including the peripheral logic per-component gating can never
    /// touch — at a conservative chip-level break-even time.
    WholeChipFull,
}

impl PolicyKind {
    /// The extended (non-preset) policies with their default parameters,
    /// in table order.
    pub const EXTENDED: [PolicyKind; 5] = [
        PolicyKind::ClockGating { residual: 0.55 },
        PolicyKind::Dvfs { scale: 0.6 },
        PolicyKind::DrowsyEverywhere,
        PolicyKind::TileGrainBase,
        PolicyKind::ContentsAwareFull,
    ];

    /// Short human-readable name for table rows.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            PolicyKind::Preset(design) => design.label().to_string(),
            PolicyKind::ClockGating { residual } => format!("ClockGate@{residual}"),
            PolicyKind::Dvfs { scale } => format!("DVFS@{scale}"),
            PolicyKind::DrowsyEverywhere => "Drowsy-All".to_string(),
            PolicyKind::TileGrainBase => "TileGrain-Base".to_string(),
            PolicyKind::ContentsAwareFull => "WriteBack-Full".to_string(),
            PolicyKind::WholeChipFull => "WholeChip-Full".to_string(),
        }
    }

    /// Expands the name into its component→policy table for `gating`
    /// parameters on a chip described by `spec`.
    ///
    /// Every kind maps each of the [`TIMELINE_UNITS`]; most add an `Sram`
    /// entry for the per-segment dead gaps, and `WholeChipFull` adds an
    /// `Other` entry for the whole-chip gaps. `TileGrainBase`,
    /// `ContentsAwareFull` and `WholeChipFull` replace or add entries in
    /// their preset's table.
    #[must_use]
    pub fn config(self, gating: &GatingParams, spec: &NpuSpec) -> PolicyConfig {
        let leak = gating.leakage;
        // The ReGate interval walk for one whole component at its Table 3
        // figures, with `exposure` of the wake-up delay exposed.
        let interval = |kind: ComponentKind, policy: GatePolicy, exposure: f64| {
            let bundle = ComponentGating {
                bet: gating.component_bet(kind),
                delay: gating.component_delay(kind),
                leak: leak.logic_off,
                policy,
            };
            IntervalGating::exposing(bundle, exposure)
        };
        // A retention-mode walk: its wake-ups are hidden under the access
        // pipeline and never charged to the critical path.
        let retention =
            |mode: SramGateMode| IntervalGating::exposing(gating.sram_gating(mode), 0.0);
        // The systolic array walks at PE-level parameters under HW/Full
        // but only *full-array* wake-ups (intervals past the full-array
        // BET) stall the pipeline — the diagonal wavefront hides the rest.
        let sa_pe_level = |policy: GatePolicy| IntervalGating {
            bet: gating.sa_pe_bet,
            delay: gating.sa_pe_delay,
            leak: leak.logic_off,
            policy,
            stall_bet: gating.sa_full_bet,
            stall_delay: gating.sa_pe_delay,
            wake_exposure: 1.0,
        };
        let per_component = |sram: f64| IdleLeakModel::PerComponent { logic: leak.logic_off, sram };
        let build = |sa_active, policies, idle_leak| PolicyConfig {
            kind: self,
            sa_active,
            policies,
            idle_leak,
        };
        match self {
            PolicyKind::Preset(Design::NoPg) => build(
                SaActiveMode::FullPower,
                units(|_| Box::new(NoGating)),
                IdleLeakModel::Baseline,
            ),
            PolicyKind::Preset(Design::ReGateBase) => {
                let mut policies =
                    units(|kind| Box::new(interval(kind, GatePolicy::IdleDetect, 1.0)));
                policies.insert(ComponentKind::Sram, Box::new(retention(SramGateMode::Drowsy)));
                build(SaActiveMode::FullPower, policies, per_component(leak.sram_sleep))
            }
            PolicyKind::Preset(Design::ReGateHw) => {
                let mut policies = units(|kind| match kind {
                    ComponentKind::Sa => Box::new(sa_pe_level(GatePolicy::IdleDetect)),
                    ComponentKind::Vu => Box::new(interval(kind, GatePolicy::IdleDetect, 1.0)),
                    _ => Box::new(interval(kind, GatePolicy::IdleDetect, 0.5)),
                });
                policies.insert(ComponentKind::Sram, Box::new(retention(SramGateMode::Drowsy)));
                build(SaActiveMode::Spatial, policies, per_component(leak.sram_sleep))
            }
            PolicyKind::Preset(Design::ReGateFull) => {
                let mut policies = units(|kind| match kind {
                    ComponentKind::Sa => Box::new(sa_pe_level(GatePolicy::CompilerDirected)),
                    // `setpm on` is issued ahead of the next use, hiding the
                    // VU wake-up behind the preceding instructions.
                    ComponentKind::Vu => {
                        Box::new(interval(kind, GatePolicy::CompilerDirected, 0.0))
                    }
                    _ => Box::new(interval(kind, GatePolicy::IdleDetect, 0.25)),
                });
                policies.insert(ComponentKind::Sram, Box::new(retention(SramGateMode::Off)));
                build(SaActiveMode::Spatial, policies, per_component(leak.sram_off))
            }
            PolicyKind::Preset(Design::Ideal) => {
                let mut policies = units(|_| Box::new(IdealOff));
                policies.insert(ComponentKind::Sram, Box::new(IdealOff));
                let idle_leak = IdleLeakModel::PerComponent { logic: 0.0, sram: 0.0 };
                build(SaActiveMode::Utilization, policies, idle_leak)
            }
            // Clock gating cannot touch SRAM cell leakage: the scratchpad
            // has no entry and stays at full static power.
            PolicyKind::ClockGating { residual } => build(
                SaActiveMode::FullPower,
                units(|_| Box::new(ClockGating { residual })),
                IdleLeakModel::PerComponent { logic: residual, sram: 1.0 },
            ),
            PolicyKind::Dvfs { scale } => {
                let mut policies = units(|_| Box::new(DvfsScaling { scale }));
                policies.insert(ComponentKind::Sram, Box::new(DvfsScaling { scale }));
                let idle_leak = IdleLeakModel::PerComponent { logic: scale, sram: scale };
                build(SaActiveMode::FullPower, policies, idle_leak)
            }
            PolicyKind::DrowsyEverywhere => {
                let mut policies = units(|_| Box::new(retention(SramGateMode::Drowsy)));
                policies.insert(ComponentKind::Sram, Box::new(retention(SramGateMode::Drowsy)));
                let idle_leak =
                    IdleLeakModel::PerComponent { logic: leak.sram_sleep, sram: leak.sram_sleep };
                build(SaActiveMode::FullPower, policies, idle_leak)
            }
            PolicyKind::TileGrainBase => {
                let mut config = PolicyKind::Preset(Design::ReGateBase).config(gating, spec);
                config.kind = self;
                config.policies.insert(
                    ComponentKind::Sa,
                    Box::new(TileGrainRegating {
                        bet: gating.sa_full_bet,
                        delay: gating.sa_full_delay,
                        leak: leak.logic_off,
                        tile_delay: gating.sa_pe_delay,
                    }),
                );
                // Vector units re-gate per lane group: Table 3 has no
                // per-lane wake figure, so a tile wakes in half the
                // full-unit delay — decode traces, which never touch the
                // SA, see their Figure 19 overhead through this edge.
                config.policies.insert(
                    ComponentKind::Vu,
                    Box::new(TileGrainRegating {
                        bet: gating.vu_bet,
                        delay: gating.vu_delay,
                        leak: leak.logic_off,
                        tile_delay: (gating.vu_delay / 2).max(1),
                    }),
                );
                config
            }
            PolicyKind::ContentsAwareFull => {
                let mut config = PolicyKind::Preset(Design::ReGateFull).config(gating, spec);
                config.kind = self;
                config.policies.insert(
                    ComponentKind::Sram,
                    Box::new(WriteBackGating::for_segment(
                        gating,
                        spec.sram_geometry().segment_bytes(),
                        spec.hbm_bytes_per_cycle(),
                    )),
                );
                config
            }
            PolicyKind::WholeChipFull => {
                let mut config = PolicyKind::Preset(Design::ReGateFull).config(gating, spec);
                config.kind = self;
                config.policies.insert(ComponentKind::Other, Box::new(whole_chip_policy(gating)));
                config
            }
        }
    }
}

/// A policy table with one entry per [`TIMELINE_UNITS`] component, the
/// policy `policy` builds for it.
fn units(
    policy: impl Fn(ComponentKind) -> Box<dyn PowerPolicy>,
) -> BTreeMap<ComponentKind, Box<dyn PowerPolicy>> {
    TIMELINE_UNITS.into_iter().map(|kind| (kind, policy(kind))).collect()
}

/// The chip-level walk over whole-chip idle intervals (every tracked
/// component quiet at once) at [`GatingParams::whole_chip`], exposing the
/// full chip wake-up: what `WholeChipFull` adds on top of ReGate-Full and
/// what pod pricing stacks on per-unit gating.
pub(crate) fn whole_chip_policy(gating: &GatingParams) -> IntervalGating {
    IntervalGating::exposing(gating.whole_chip(), 1.0)
}

/// What a policy walk consumes of one component's positioned idle gaps:
/// their lengths in timeline order, and whether the last one trails (runs
/// to the makespan, so it wakes nothing up).
#[derive(Debug)]
pub(crate) struct GapLengths {
    pub(crate) lens: Vec<u64>,
    trailing: bool,
}

impl GapLengths {
    pub(crate) fn of(gaps: &[CycleInterval], makespan: u64) -> Self {
        GapLengths {
            lens: gaps.iter().map(CycleInterval::len).collect(),
            trailing: gaps.last().is_some_and(|gap| gap.end >= makespan),
        }
    }

    pub(crate) fn walk(&self, policy: &dyn PowerPolicy) -> PolicyWalk {
        policy.walk_intervals(&self.lens, self.trailing)
    }
}

/// How the systolic array's *active* (computing) periods are priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaActiveMode {
    /// The whole array burns full static power while any PE computes
    /// (component-level gating cannot exploit spatial underutilization).
    FullPower,
    /// PE-level spatial gating: padded rows/columns are off and the
    /// diagonal wavefront parks PEs in `W_on` outside the input wave.
    Spatial,
    /// Oracle: pay exactly the spatially-utilized PE fraction.
    Utilization,
}

/// How the out-of-duty-cycle idle leakage (the idleness the simulated
/// window cannot see) is attributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IdleLeakModel {
    /// Full baseline idle leakage (nothing is gated between traces).
    Baseline,
    /// Baseline idle leakage scaled by each component's static-power
    /// share weighted with its own off-state residual (both residuals 0
    /// for the Ideal roofline, which leaks nothing).
    PerComponent {
        /// Residual of every non-SRAM component while the chip idles.
        logic: f64,
        /// Residual of the SRAM while the chip idles.
        sram: f64,
    },
}

/// The component→policy table of one [`PolicyKind`].
///
/// Each entry names the [`PowerPolicy`] that walks one component's idle
/// gaps: the [`TIMELINE_UNITS`] walk the gaps of their busy timelines,
/// `Sram` walks the per-segment dead gaps, and `Other` walks the
/// whole-chip gaps (every timeline unit quiet at once). A component with
/// no entry runs at full static power for the whole trace.
#[derive(Debug)]
pub struct PolicyConfig {
    /// The kind this configuration was expanded from.
    pub kind: PolicyKind,
    /// Systolic-array active-period treatment.
    pub(crate) sa_active: SaActiveMode,
    /// The policy walking each component's idle gaps.
    pub(crate) policies: BTreeMap<ComponentKind, Box<dyn PowerPolicy>>,
    /// Out-of-duty-cycle leakage attribution.
    pub(crate) idle_leak: IdleLeakModel,
}

impl PolicyConfig {
    /// Every per-component policy in this configuration, in component
    /// order (for diagnostics and analyzer verification).
    #[must_use]
    pub fn component_policies(&self) -> Vec<&dyn PowerPolicy> {
        self.policies.values().map(AsRef::as_ref).collect()
    }

    /// Configuration-consistency findings across every component policy.
    #[must_use]
    pub fn consistency(&self) -> Vec<PolicyInconsistency> {
        self.component_policies().iter().flat_map(|policy| policy.consistency()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_arch::NpuGeneration;

    #[test]
    fn every_default_policy_configuration_is_consistent() {
        let gating = GatingParams::default();
        let spec = NpuSpec::generation(NpuGeneration::D);
        for design in Design::ALL {
            let config = PolicyKind::Preset(design).config(&gating, &spec);
            assert!(config.consistency().is_empty(), "{design}: inconsistent preset");
        }
        for kind in PolicyKind::EXTENDED {
            let config = kind.config(&gating, &spec);
            assert!(config.consistency().is_empty(), "{}: inconsistent config", kind.label());
        }
    }

    #[test]
    fn broken_parameterizations_are_reported() {
        let gating = GatingParams::default();
        let spec = NpuSpec::generation(NpuGeneration::D);
        let broken = PolicyKind::Dvfs { scale: 1.5 }.config(&gating, &spec);
        // Every component runs the same broken scale: one finding each.
        assert_eq!(broken.consistency().len(), 6);
        let broken = PolicyKind::ClockGating { residual: -0.2 }.config(&gating, &spec);
        assert_eq!(broken.consistency().len(), 5);
    }

    #[test]
    fn whole_chip_full_extends_regate_full_with_a_chip_policy() {
        let gating = GatingParams::default();
        let spec = NpuSpec::generation(NpuGeneration::D);
        let config = PolicyKind::WholeChipFull.config(&gating, &spec);
        assert!(
            config.policies.contains_key(&ComponentKind::Other),
            "chip-level policy is unarmed"
        );
        assert!(config.consistency().is_empty(), "WholeChip-Full: inconsistent config");
        // ReGate-Full's six component policies plus the chip-level walk.
        assert_eq!(config.component_policies().len(), 7);
        let full = PolicyKind::Preset(Design::ReGateFull).config(&gating, &spec);
        assert!(
            !full.policies.contains_key(&ComponentKind::Other),
            "presets never gate the uncore"
        );
        assert_eq!(PolicyKind::WholeChipFull.label(), "WholeChip-Full");
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<String> = Design::ALL
            .iter()
            .map(|&d| PolicyKind::Preset(d).label())
            .chain(PolicyKind::EXTENDED.iter().map(|k| k.label()))
            .collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), Design::ALL.len() + PolicyKind::EXTENDED.len());
    }
}
