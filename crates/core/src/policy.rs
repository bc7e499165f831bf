//! Power-management policy selection for the evaluation engine.
//!
//! [`PolicyKind`] names a chip-wide power-management strategy; its
//! [`config`](PolicyKind::config) method expands the name into a
//! [`PolicyConfig`] — one [`npu_power::PowerPolicy`] per gateable
//! component plus the SRAM and out-of-duty-cycle leakage treatments — that
//! [`crate::Evaluator`] walks over the simulated timeline. The five ReGate
//! design points of the paper are expressed as *presets* of the same
//! machinery ([`PolicyKind::Preset`]), with bit-identical results to the
//! original hard-coded evaluation; the extended kinds price the
//! neighbouring design space (clock gating, DVFS, drowsy-everywhere,
//! tile-grain re-gating, contents-aware SRAM write-back) on the *same*
//! timeline so the comparison is apples to apples.

use serde::{Deserialize, Serialize};

use npu_arch::{ComponentKind, NpuSpec};
use npu_power::{
    ClockGating, ComponentGating, DvfsScaling, GatePolicy, GatingParams, IdealOff, IntervalGating,
    NoGating, PolicyInconsistency, PolicyWalk, PowerPolicy, SramGateMode, TileGrainRegating,
    WriteBackGating,
};
use npu_sim::CycleInterval;

use crate::designs::Design;

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

    /// Expands the name into per-component policies for `gating`
    /// parameters on a chip described by `spec`.
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
        let sram_walk = |mode: SramGateMode| SramPolicy::Walk(Box::new(retention(mode)));
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
        match self {
            PolicyKind::Preset(Design::NoPg) => PolicyConfig {
                kind: self,
                sa_active: SaActiveMode::FullPower,
                sa_idle: Box::new(NoGating),
                vu: Box::new(NoGating),
                hbm: Box::new(NoGating),
                ici: Box::new(NoGating),
                dma: Box::new(NoGating),
                sram: SramPolicy::FullPower,
                whole_chip: None,
                idle_leak: IdleLeakModel::Baseline,
            },
            PolicyKind::Preset(Design::ReGateBase) => PolicyConfig {
                kind: self,
                sa_active: SaActiveMode::FullPower,
                sa_idle: Box::new(interval(ComponentKind::Sa, GatePolicy::IdleDetect, 1.0)),
                vu: Box::new(interval(ComponentKind::Vu, GatePolicy::IdleDetect, 1.0)),
                hbm: Box::new(interval(ComponentKind::Hbm, GatePolicy::IdleDetect, 1.0)),
                ici: Box::new(interval(ComponentKind::Ici, GatePolicy::IdleDetect, 1.0)),
                dma: Box::new(interval(ComponentKind::Dma, GatePolicy::IdleDetect, 1.0)),
                sram: sram_walk(SramGateMode::Drowsy),
                whole_chip: None,
                idle_leak: IdleLeakModel::PerComponent {
                    logic: leak.logic_off,
                    sram: leak.sram_sleep,
                },
            },
            PolicyKind::Preset(Design::ReGateHw) => PolicyConfig {
                kind: self,
                sa_active: SaActiveMode::Spatial,
                sa_idle: Box::new(sa_pe_level(GatePolicy::IdleDetect)),
                vu: Box::new(interval(ComponentKind::Vu, GatePolicy::IdleDetect, 1.0)),
                hbm: Box::new(interval(ComponentKind::Hbm, GatePolicy::IdleDetect, 0.5)),
                ici: Box::new(interval(ComponentKind::Ici, GatePolicy::IdleDetect, 0.5)),
                dma: Box::new(interval(ComponentKind::Dma, GatePolicy::IdleDetect, 0.5)),
                sram: sram_walk(SramGateMode::Drowsy),
                whole_chip: None,
                idle_leak: IdleLeakModel::PerComponent {
                    logic: leak.logic_off,
                    sram: leak.sram_sleep,
                },
            },
            PolicyKind::Preset(Design::ReGateFull) => PolicyConfig {
                kind: self,
                sa_active: SaActiveMode::Spatial,
                sa_idle: Box::new(sa_pe_level(GatePolicy::CompilerDirected)),
                // `setpm on` is issued ahead of the next use, hiding the
                // VU wake-up behind the preceding instructions.
                vu: Box::new(interval(ComponentKind::Vu, GatePolicy::CompilerDirected, 0.0)),
                hbm: Box::new(interval(ComponentKind::Hbm, GatePolicy::IdleDetect, 0.25)),
                ici: Box::new(interval(ComponentKind::Ici, GatePolicy::IdleDetect, 0.25)),
                dma: Box::new(interval(ComponentKind::Dma, GatePolicy::IdleDetect, 0.25)),
                sram: sram_walk(SramGateMode::Off),
                whole_chip: None,
                idle_leak: IdleLeakModel::PerComponent {
                    logic: leak.logic_off,
                    sram: leak.sram_off,
                },
            },
            PolicyKind::Preset(Design::Ideal) => PolicyConfig {
                kind: self,
                sa_active: SaActiveMode::Utilization,
                sa_idle: Box::new(IdealOff),
                vu: Box::new(IdealOff),
                hbm: Box::new(IdealOff),
                ici: Box::new(IdealOff),
                dma: Box::new(IdealOff),
                sram: SramPolicy::Walk(Box::new(IdealOff)),
                whole_chip: None,
                idle_leak: IdleLeakModel::Zero,
            },
            PolicyKind::ClockGating { residual } => PolicyConfig {
                kind: self,
                sa_active: SaActiveMode::FullPower,
                sa_idle: Box::new(ClockGating { residual }),
                vu: Box::new(ClockGating { residual }),
                hbm: Box::new(ClockGating { residual }),
                ici: Box::new(ClockGating { residual }),
                dma: Box::new(ClockGating { residual }),
                // Clock gating cannot touch SRAM cell leakage: the
                // scratchpad stays at full static power.
                sram: SramPolicy::FullPower,
                whole_chip: None,
                idle_leak: IdleLeakModel::PerComponent { logic: residual, sram: 1.0 },
            },
            PolicyKind::Dvfs { scale } => PolicyConfig {
                kind: self,
                sa_active: SaActiveMode::FullPower,
                sa_idle: Box::new(DvfsScaling { scale }),
                vu: Box::new(DvfsScaling { scale }),
                hbm: Box::new(DvfsScaling { scale }),
                ici: Box::new(DvfsScaling { scale }),
                dma: Box::new(DvfsScaling { scale }),
                sram: SramPolicy::Walk(Box::new(DvfsScaling { scale })),
                whole_chip: None,
                idle_leak: IdleLeakModel::PerComponent { logic: scale, sram: scale },
            },
            PolicyKind::DrowsyEverywhere => PolicyConfig {
                kind: self,
                sa_active: SaActiveMode::FullPower,
                sa_idle: Box::new(retention(SramGateMode::Drowsy)),
                vu: Box::new(retention(SramGateMode::Drowsy)),
                hbm: Box::new(retention(SramGateMode::Drowsy)),
                ici: Box::new(retention(SramGateMode::Drowsy)),
                dma: Box::new(retention(SramGateMode::Drowsy)),
                sram: sram_walk(SramGateMode::Drowsy),
                whole_chip: None,
                idle_leak: IdleLeakModel::PerComponent {
                    logic: leak.sram_sleep,
                    sram: leak.sram_sleep,
                },
            },
            PolicyKind::TileGrainBase => {
                let mut config = PolicyKind::Preset(Design::ReGateBase).config(gating, spec);
                config.kind = self;
                config.sa_idle = Box::new(TileGrainRegating {
                    bet: gating.sa_full_bet,
                    delay: gating.sa_full_delay,
                    leak: leak.logic_off,
                    tile_delay: gating.sa_pe_delay,
                });
                // Vector units re-gate per lane group: Table 3 has no
                // per-lane wake figure, so a tile wakes in half the
                // full-unit delay — decode traces, which never touch the
                // SA, see their Figure 19 overhead through this edge.
                config.vu = Box::new(TileGrainRegating {
                    bet: gating.vu_bet,
                    delay: gating.vu_delay,
                    leak: leak.logic_off,
                    tile_delay: (gating.vu_delay / 2).max(1),
                });
                config
            }
            PolicyKind::ContentsAwareFull => {
                let mut config = PolicyKind::Preset(Design::ReGateFull).config(gating, spec);
                config.kind = self;
                config.sram = SramPolicy::Walk(Box::new(WriteBackGating::for_segment(
                    gating,
                    spec.sram_geometry().segment_bytes(),
                    spec.hbm_bytes_per_cycle(),
                )));
                config
            }
            PolicyKind::WholeChipFull => {
                let mut config = PolicyKind::Preset(Design::ReGateFull).config(gating, spec);
                config.kind = self;
                config.whole_chip = Some(Box::new(whole_chip_policy(gating)));
                config
            }
        }
    }
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

/// How the SRAM scratchpad's per-segment dead intervals are priced.
#[derive(Debug)]
pub enum SramPolicy {
    /// Every segment stays at full static power for the whole run.
    FullPower,
    /// Dead intervals are walked by a policy (live intervals always burn
    /// full power).
    Walk(Box<dyn PowerPolicy>),
}

/// How the out-of-duty-cycle idle leakage (the idleness the simulated
/// window cannot see) is attributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IdleLeakModel {
    /// Full baseline idle leakage (nothing is gated between traces).
    Baseline,
    /// No idle leakage at all (the Ideal roofline).
    Zero,
    /// Baseline idle leakage scaled by each component's static-power
    /// share weighted with its own off-state residual.
    PerComponent {
        /// Residual of every non-SRAM component while the chip idles.
        logic: f64,
        /// Residual of the SRAM while the chip idles.
        sram: f64,
    },
}

/// Per-component power-management policies for one [`PolicyKind`].
#[derive(Debug)]
pub struct PolicyConfig {
    /// The kind this configuration was expanded from.
    pub kind: PolicyKind,
    /// Systolic-array active-period treatment.
    pub(crate) sa_active: SaActiveMode,
    /// Systolic-array idle-interval policy.
    pub(crate) sa_idle: Box<dyn PowerPolicy>,
    /// Vector-unit idle-interval policy.
    pub(crate) vu: Box<dyn PowerPolicy>,
    /// HBM-controller idle-interval policy.
    pub(crate) hbm: Box<dyn PowerPolicy>,
    /// ICI-controller idle-interval policy.
    pub(crate) ici: Box<dyn PowerPolicy>,
    /// DMA-engine idle-interval policy (wakes with the HBM path it feeds).
    pub(crate) dma: Box<dyn PowerPolicy>,
    /// SRAM per-segment dead-interval policy.
    pub(crate) sram: SramPolicy,
    /// Chip-level policy walking *whole-chip* idle intervals (every
    /// tracked component simultaneously quiet); `None` leaves the
    /// peripheral logic always on.
    pub(crate) whole_chip: Option<Box<dyn PowerPolicy>>,
    /// Out-of-duty-cycle leakage attribution.
    pub(crate) idle_leak: IdleLeakModel,
}

impl PolicyConfig {
    /// Every per-component policy in this configuration (for diagnostics
    /// and analyzer verification).
    #[must_use]
    pub fn component_policies(&self) -> Vec<&dyn PowerPolicy> {
        let mut out: Vec<&dyn PowerPolicy> = vec![
            self.sa_idle.as_ref(),
            self.vu.as_ref(),
            self.hbm.as_ref(),
            self.ici.as_ref(),
            self.dma.as_ref(),
        ];
        if let SramPolicy::Walk(policy) = &self.sram {
            out.push(policy.as_ref());
        }
        if let Some(policy) = &self.whole_chip {
            out.push(policy.as_ref());
        }
        out
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
        assert!(config.whole_chip.is_some(), "chip-level policy must be armed");
        assert!(config.consistency().is_empty(), "WholeChip-Full: inconsistent config");
        // ReGate-Full's six component policies plus the chip-level walk.
        assert_eq!(config.component_policies().len(), 7);
        let full = PolicyKind::Preset(Design::ReGateFull).config(&gating, &spec);
        assert!(full.whole_chip.is_none(), "presets never gate the uncore");
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
