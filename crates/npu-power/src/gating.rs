//! Power-gating hardware parameters (paper Table 3 and §4.4).
//!
//! These are the synthesized power-on/off delays and break-even times (BET)
//! of each gateable component, the residual leakage of gated / sleeping
//! circuits, and the chip-area overhead of the gating logic. The evaluation
//! treats them as configurable parameters (sensitivity analysis, §6.5).

use serde::{Deserialize, Serialize};

use npu_arch::ComponentKind;

/// Residual leakage of gated or sleeping circuits, as a fraction of the
/// component's powered-on static power (paper §6.1 defaults: 3% for gated
/// logic, 25% for sleeping SRAM, 0.2% for powered-off SRAM).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeakageRatios {
    /// Leakage of power-gated logic relative to its ON static power.
    pub logic_off: f64,
    /// Leakage of SRAM cells in the data-retaining sleep (drowsy) mode.
    pub sram_sleep: f64,
    /// Leakage of fully power-gated SRAM cells.
    pub sram_off: f64,
}

impl Default for LeakageRatios {
    fn default() -> Self {
        LeakageRatios { logic_off: 0.03, sram_sleep: 0.25, sram_off: 0.002 }
    }
}

impl LeakageRatios {
    /// The five leakage settings swept by the paper's sensitivity analysis
    /// (Figure 21), from the default to a very leaky corner.
    #[must_use]
    pub fn sensitivity_sweep() -> Vec<LeakageRatios> {
        vec![
            LeakageRatios { logic_off: 0.03, sram_sleep: 0.25, sram_off: 0.002 },
            LeakageRatios { logic_off: 0.1, sram_sleep: 0.3, sram_off: 0.01 },
            LeakageRatios { logic_off: 0.2, sram_sleep: 0.4, sram_off: 0.1 },
            LeakageRatios { logic_off: 0.4, sram_sleep: 0.5, sram_off: 0.25 },
            LeakageRatios { logic_off: 0.6, sram_sleep: 0.8, sram_off: 0.4 },
        ]
    }

    /// Label used on the Figure 21 x-axis, e.g. `"0.03/0.25/0.002"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.logic_off, self.sram_sleep, self.sram_off)
    }
}

/// Power-gating timing parameters of every gateable component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatingParams {
    /// Power-on/off delay of a single systolic-array PE, in cycles.
    pub sa_pe_delay: u64,
    /// Break-even time of a single PE, in cycles.
    pub sa_pe_bet: u64,
    /// Power-on/off delay of an entire systolic array, in cycles.
    pub sa_full_delay: u64,
    /// Break-even time of an entire systolic array, in cycles.
    pub sa_full_bet: u64,
    /// Power-on/off delay of a vector unit, in cycles.
    pub vu_delay: u64,
    /// Break-even time of a vector unit, in cycles.
    pub vu_bet: u64,
    /// Power-on/off delay of the HBM controller & PHY, in cycles.
    pub hbm_delay: u64,
    /// Break-even time of the HBM controller & PHY, in cycles.
    pub hbm_bet: u64,
    /// Power-on/off delay of the ICI controller & PHY, in cycles.
    pub ici_delay: u64,
    /// Break-even time of the ICI controller & PHY, in cycles.
    pub ici_bet: u64,
    /// Delay to put a 4 KiB SRAM segment into sleep mode, in cycles.
    pub sram_sleep_delay: u64,
    /// Break-even time of SRAM sleep mode, in cycles.
    pub sram_sleep_bet: u64,
    /// Delay to fully power off a 4 KiB SRAM segment, in cycles.
    pub sram_off_delay: u64,
    /// Break-even time of SRAM off mode, in cycles.
    pub sram_off_bet: u64,
    /// Residual leakage ratios.
    pub leakage: LeakageRatios,
}

impl Default for GatingParams {
    /// The Table 3 values from the synthesized 7 nm prototype.
    fn default() -> Self {
        GatingParams {
            sa_pe_delay: 1,
            sa_pe_bet: 47,
            sa_full_delay: 10,
            sa_full_bet: 469,
            vu_delay: 2,
            vu_bet: 32,
            hbm_delay: 60,
            hbm_bet: 412,
            ici_delay: 60,
            ici_bet: 459,
            sram_sleep_delay: 4,
            sram_sleep_bet: 41,
            sram_off_delay: 10,
            sram_off_bet: 82,
            leakage: LeakageRatios::default(),
        }
    }
}

impl GatingParams {
    /// Power-on/off delay for gating one whole component of a given kind.
    #[must_use]
    pub fn component_delay(&self, kind: ComponentKind) -> u64 {
        match kind {
            ComponentKind::Sa => self.sa_full_delay,
            ComponentKind::Vu => self.vu_delay,
            ComponentKind::Sram => self.sram_off_delay,
            ComponentKind::Hbm => self.hbm_delay,
            ComponentKind::Ici => self.ici_delay,
            // The DMA engine wakes with the HBM path it feeds.
            ComponentKind::Dma => self.hbm_delay,
            ComponentKind::Other => u64::MAX,
        }
    }

    /// Break-even time for gating one whole component of a given kind.
    #[must_use]
    pub fn component_bet(&self, kind: ComponentKind) -> u64 {
        match kind {
            ComponentKind::Sa => self.sa_full_bet,
            ComponentKind::Vu => self.vu_bet,
            ComponentKind::Sram => self.sram_off_bet,
            ComponentKind::Hbm => self.hbm_bet,
            ComponentKind::Ici => self.ici_bet,
            ComponentKind::Dma => self.hbm_bet,
            ComponentKind::Other => u64::MAX,
        }
    }

    /// Returns a copy with every delay and BET scaled by `factor` (the
    /// Figure 22 sensitivity sweep).
    #[must_use]
    pub fn with_delay_scale(&self, factor: f64) -> Self {
        let scale = |v: u64| ((v as f64 * factor).round() as u64).max(1);
        GatingParams {
            sa_pe_delay: scale(self.sa_pe_delay),
            sa_pe_bet: scale(self.sa_pe_bet),
            sa_full_delay: scale(self.sa_full_delay),
            sa_full_bet: scale(self.sa_full_bet),
            vu_delay: scale(self.vu_delay),
            vu_bet: scale(self.vu_bet),
            hbm_delay: scale(self.hbm_delay),
            hbm_bet: scale(self.hbm_bet),
            ici_delay: scale(self.ici_delay),
            ici_bet: scale(self.ici_bet),
            sram_sleep_delay: scale(self.sram_sleep_delay),
            sram_sleep_bet: scale(self.sram_sleep_bet),
            sram_off_delay: scale(self.sram_off_delay),
            sram_off_bet: scale(self.sram_off_bet),
            leakage: self.leakage,
        }
    }

    /// Returns a copy with different leakage ratios (the Figure 21 sweep).
    #[must_use]
    pub fn with_leakage(&self, leakage: LeakageRatios) -> Self {
        GatingParams { leakage, ..self.clone() }
    }

    /// The break-even time, transition delay, residual leakage, and gating
    /// policy for one SRAM segment retention mode (§4.3).
    ///
    /// The drowsy mode is what hardware idle detection can manage on its
    /// own — data survives, so a mispredicted sleep costs only the wake
    /// delay — which is why `ReGate-Base` and `ReGate-HW` use it. Powering
    /// a segment fully off destroys its contents and is therefore only
    /// safe when the compiler *knows* the segment is dead, so `Off` is
    /// driven by `setpm` (`ReGate-Full`), whose statically known interval
    /// bounds also skip the idle-detection window.
    #[must_use]
    pub fn sram_gating(&self, mode: SramGateMode) -> ComponentGating {
        match mode {
            SramGateMode::Drowsy => ComponentGating {
                bet: self.sram_sleep_bet,
                delay: self.sram_sleep_delay,
                leak: self.leakage.sram_sleep,
                policy: GatePolicy::IdleDetect,
            },
            SramGateMode::Off => ComponentGating {
                bet: self.sram_off_bet,
                delay: self.sram_off_delay,
                leak: self.leakage.sram_off,
                policy: GatePolicy::CompilerDirected,
            },
        }
    }

    /// Gating of the whole chip, uncore included, over the intervals in
    /// which every tracked component is idle at once. The uncore has no
    /// Table 3 row of its own, so the chip gates conservatively at twice
    /// the slowest component's break-even time and wake-up delay, under
    /// hardware idle detection with the logic residual.
    #[must_use]
    pub fn whole_chip(&self) -> ComponentGating {
        ComponentGating {
            bet: 2 * self.sa_full_bet.max(self.vu_bet).max(self.hbm_bet).max(self.ici_bet),
            delay: 2 * self
                .sa_full_delay
                .max(self.vu_delay)
                .max(self.hbm_delay)
                .max(self.ici_delay),
            leak: self.leakage.logic_off,
            policy: GatePolicy::IdleDetect,
        }
    }

    /// Whether an idle interval of `len` cycles is worth gating against a
    /// break-even time: gating shorter intervals costs more transition
    /// energy than the leakage it saves.
    ///
    /// The boundary is *inclusive*: the paper defines the break-even time
    /// as the minimum interval for which the saved leakage amortizes the
    /// transition energy, so an interval of exactly `bet` cycles already
    /// breaks even and is gated. (`len > bet` was a subtle off-by-one that
    /// silently left every exactly-break-even interval at full power.)
    #[must_use]
    pub fn gates_interval(bet: u64, len: u64) -> bool {
        len >= bet
    }

    /// Equivalent full-power cycles of *one* idle interval of `len` cycles
    /// under a gating policy with break-even time `bet`, transition delay
    /// `delay`, and residual leakage `leak` (fraction of full static
    /// power).
    ///
    /// Intervals below the break-even time stay powered: the component
    /// leaks at full power for the whole interval. Intervals at or above
    /// it are gated ([`GatingParams::gates_interval`] — the boundary is
    /// inclusive) and pay the policy's entry cost at full power, leaking
    /// at `leak` for the remainder.
    #[must_use]
    pub fn idle_interval_equivalent_cycles(
        len: u64,
        bet: u64,
        delay: u64,
        leak: f64,
        policy: GatePolicy,
    ) -> f64 {
        let len_f = len as f64;
        if !Self::gates_interval(bet, len) {
            return len_f;
        }
        let entry = Self::entry_cycles(len, bet, delay, policy);
        entry + (len_f - entry) * leak
    }

    /// Cycles a gated idle interval of `len` cycles spends at full power
    /// before settling at its residual leakage, capped at the interval.
    #[must_use]
    pub(crate) fn entry_cycles(len: u64, bet: u64, delay: u64, policy: GatePolicy) -> f64 {
        let entry = match policy {
            // Hardware idle detection must *observe* idleness before
            // committing: the detection window (a third of the BET, as in
            // the synthesized prototype's counter configuration) is spent
            // at full power.
            GatePolicy::IdleDetect => bet as f64 / 3.0,
            // The compiler knows the interval bounds exactly and issues
            // `setpm off` at its start and `setpm on` ahead of the next
            // use; both transitions burn full power but no window.
            GatePolicy::CompilerDirected => 2.0 * delay as f64,
        };
        entry.min(len as f64)
    }

    /// Walks a component's real idle intervals and accumulates the
    /// equivalent full-power cycles plus gating statistics — the
    /// interval-accurate replacement for scaling aggregate idle-cycle
    /// counts.
    #[must_use]
    pub fn walk_idle_intervals(
        interval_lens: impl Iterator<Item = u64>,
        bet: u64,
        delay: u64,
        leak: f64,
        policy: GatePolicy,
    ) -> GatedIdleSummary {
        let mut summary = GatedIdleSummary::default();
        for len in interval_lens {
            summary.idle_cycles += len;
            summary.equivalent_cycles +=
                Self::idle_interval_equivalent_cycles(len, bet, delay, leak, policy);
            if Self::gates_interval(bet, len) {
                summary.gated_intervals += 1;
                summary.gated_cycles += len;
            }
        }
        summary
    }
}

/// One statically detectable defect in a gating parameterization.
///
/// The rules mirror the consistency conditions implicit in Table 3 and
/// §4.3: a break-even time below the mode's own amortization point makes
/// gating a net energy *loss* at the threshold the policy gates at, the
/// drowsy/off retention modes must be ordered (off is the deeper state),
/// and residual leakage is a fraction of full static power. The queries
/// are pure data — `npu-sim`'s static analyzer lifts them into
/// diagnostics, and sensitivity sweeps can call them directly to reject
/// nonsensical corners before simulating them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatingInconsistency {
    /// Which consistency rule the parameterization violates.
    pub rule: GatingRule,
    /// Component or mode label the violation concerns (`"SA"`,
    /// `"SRAM sleep"`, …).
    pub component: String,
    /// Human-readable description of the violation.
    pub message: String,
}

/// The statically checkable gating-consistency rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GatingRule {
    /// A break-even time at or below the policy's amortization point:
    /// gating an exactly-break-even interval saves nothing (or loses
    /// energy), so the declared BET is inconsistent with the declared
    /// transition delay and leakage.
    BetBelowAmortization,
    /// The SRAM retention modes are mis-ordered: powering fully off is the
    /// deeper state, so its break-even threshold must be at least the
    /// drowsy threshold and its residual leakage at most the drowsy
    /// leakage.
    SramModeOrdering,
    /// A residual-leakage ratio outside `[0, 1)` — gated circuits cannot
    /// leak more than powered-on ones.
    LeakageOutOfRange,
}

impl GatingParams {
    /// Every gating-consistency violation in this parameterization, in a
    /// deterministic order (amortization per component, then mode
    /// ordering, then leakage ranges). An empty vector means the
    /// parameters are self-consistent.
    ///
    /// The amortization check evaluates
    /// [`GatingParams::idle_interval_equivalent_cycles`] at an
    /// exactly-break-even interval under the component's governing policy
    /// and requires a strict saving — the paper's definition of the
    /// break-even time as "the minimum interval for which the saved
    /// leakage amortizes the transition energy".
    #[must_use]
    pub fn consistency(&self) -> Vec<GatingInconsistency> {
        let mut out = Vec::new();
        // (label, bet, delay, leak, policy): the logic components under
        // compiler-directed gating (the stricter entry cost, 2×delay,
        // which ReGate-Full relies on), the per-PE grain under hardware
        // idle detection, and both SRAM retention modes under their
        // governing policies.
        let checks: [(&str, u64, u64, f64, GatePolicy); 7] = [
            (
                "SA",
                self.sa_full_bet,
                self.sa_full_delay,
                self.leakage.logic_off,
                GatePolicy::CompilerDirected,
            ),
            (
                "SA-PE",
                self.sa_pe_bet,
                self.sa_pe_delay,
                self.leakage.logic_off,
                GatePolicy::IdleDetect,
            ),
            (
                "VU",
                self.vu_bet,
                self.vu_delay,
                self.leakage.logic_off,
                GatePolicy::CompilerDirected,
            ),
            (
                "HBM",
                self.hbm_bet,
                self.hbm_delay,
                self.leakage.logic_off,
                GatePolicy::CompilerDirected,
            ),
            (
                "ICI",
                self.ici_bet,
                self.ici_delay,
                self.leakage.logic_off,
                GatePolicy::CompilerDirected,
            ),
            (
                "SRAM sleep",
                self.sram_sleep_bet,
                self.sram_sleep_delay,
                self.leakage.sram_sleep,
                GatePolicy::IdleDetect,
            ),
            (
                "SRAM off",
                self.sram_off_bet,
                self.sram_off_delay,
                self.leakage.sram_off,
                GatePolicy::CompilerDirected,
            ),
        ];
        for (label, bet, delay, leak, policy) in checks {
            let equivalent = Self::idle_interval_equivalent_cycles(bet, bet, delay, leak, policy);
            if equivalent >= bet as f64 {
                out.push(GatingInconsistency {
                    rule: GatingRule::BetBelowAmortization,
                    component: label.to_string(),
                    message: format!(
                        "{label}: gating an exactly-break-even interval of {bet} cycles costs \
                         {equivalent:.1} equivalent full-power cycles (delay {delay}, leakage \
                         {leak}) — the declared BET is below the policy's amortization point"
                    ),
                });
            }
        }
        if self.sram_off_bet < self.sram_sleep_bet {
            out.push(GatingInconsistency {
                rule: GatingRule::SramModeOrdering,
                component: "SRAM".to_string(),
                message: format!(
                    "SRAM off BET ({}) is below the drowsy BET ({}): the deeper retention mode \
                     must have the higher entry threshold",
                    self.sram_off_bet, self.sram_sleep_bet
                ),
            });
        }
        if self.leakage.sram_off > self.leakage.sram_sleep {
            out.push(GatingInconsistency {
                rule: GatingRule::SramModeOrdering,
                component: "SRAM".to_string(),
                message: format!(
                    "powered-off SRAM leaks more ({}) than sleeping SRAM ({}): the retention \
                     modes are mis-ordered",
                    self.leakage.sram_off, self.leakage.sram_sleep
                ),
            });
        }
        for (label, ratio) in [
            ("logic off", self.leakage.logic_off),
            ("SRAM sleep", self.leakage.sram_sleep),
            ("SRAM off", self.leakage.sram_off),
        ] {
            if !(0.0..1.0).contains(&ratio) || !ratio.is_finite() {
                out.push(GatingInconsistency {
                    rule: GatingRule::LeakageOutOfRange,
                    component: label.to_string(),
                    message: format!(
                        "{label} residual leakage {ratio} is outside [0, 1): gated circuits \
                         cannot leak more than powered-on ones"
                    ),
                });
            }
        }
        out
    }

    /// The largest power-on/off delay of any gateable component — the
    /// wake-up lead time a compiler-directed `setpm on` must be able to
    /// hide inside the consumer's dispatch window.
    #[must_use]
    pub fn max_component_delay(&self) -> u64 {
        ComponentKind::GATEABLE
            .into_iter()
            .map(|kind| self.component_delay(kind))
            .max()
            .unwrap_or(0)
    }
}

/// Retention mode a dead SRAM segment is gated into (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SramGateMode {
    /// Data-retaining sleep: the segment's cells are kept just above the
    /// retention voltage. State survives, leakage drops to
    /// [`LeakageRatios::sram_sleep`].
    Drowsy,
    /// Full power-off: the segment loses its contents and leaks only
    /// [`LeakageRatios::sram_off`]. Requires compiler knowledge that the
    /// segment holds no live data.
    Off,
}

/// The gating parameters governing one component's idle gaps: the
/// `(bet, delay, leak, policy)` bundle the interval walk consumes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComponentGating {
    /// Break-even time in cycles; shorter gaps stay at full power.
    pub bet: u64,
    /// Power-on/off transition delay in cycles.
    pub delay: u64,
    /// Residual leakage while gated, as a fraction of full static power.
    pub leak: f64,
    /// How gating is entered (idle detection vs compiler-directed).
    pub policy: GatePolicy,
}

impl ComponentGating {
    /// The default gating bundle for a component kind: logic components
    /// gate compiler-directed at their Table 3 break-even times with the
    /// `logic_off` residual, SRAM follows the selected retention mode,
    /// and peripheral logic (`Other`) cannot gate at all (`None`).
    #[must_use]
    pub fn for_kind(
        params: &GatingParams,
        kind: ComponentKind,
        sram_mode: SramGateMode,
    ) -> Option<ComponentGating> {
        match kind {
            ComponentKind::Other => None,
            ComponentKind::Sram => Some(params.sram_gating(sram_mode)),
            _ => Some(ComponentGating {
                bet: params.component_bet(kind),
                delay: params.component_delay(kind),
                leak: params.leakage.logic_off,
                policy: GatePolicy::CompilerDirected,
            }),
        }
    }
}

/// How a gating mechanism decides to gate an idle interval (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GatePolicy {
    /// Hardware idle detection: a counter observes idleness for a
    /// confirmation window before gating, and the component wakes on
    /// demand (exposing its wake-up delay unless hidden by the dataflow).
    IdleDetect,
    /// Compiler-directed `setpm`: the interval bounds are known statically,
    /// so the component is gated immediately and woken ahead of its next
    /// use.
    CompilerDirected,
}

/// Result of walking a component's idle intervals under one gating policy.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GatedIdleSummary {
    /// Total idle cycles walked.
    pub idle_cycles: u64,
    /// Equivalent full-power cycles those idle cycles cost.
    pub equivalent_cycles: f64,
    /// Number of intervals long enough to gate (above the break-even
    /// time); each one implies a power-down/power-up transition pair.
    pub gated_intervals: u64,
    /// Idle cycles inside gated intervals.
    pub gated_cycles: u64,
}

/// Chip-area overhead of the ReGate power-gating logic (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaOverhead {
    /// Area overhead per PE for the per-PE gating transistors (6.36%).
    pub per_pe_fraction: f64,
    /// Resulting whole-chip overhead of SA spatial gating (0.68%).
    pub sa_chip_fraction: f64,
    /// Whole-chip overhead of VU gating (0.13%).
    pub vu_chip_fraction: f64,
    /// Whole-chip overhead of per-segment SRAM gating (2.5%).
    pub sram_chip_fraction: f64,
    /// Total chip overhead (3.3%).
    pub total_chip_fraction: f64,
}

impl Default for AreaOverhead {
    fn default() -> Self {
        AreaOverhead {
            per_pe_fraction: 0.0636,
            sa_chip_fraction: 0.0068,
            vu_chip_fraction: 0.0013,
            sram_chip_fraction: 0.025,
            total_chip_fraction: 0.033,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_defaults() {
        let p = GatingParams::default();
        assert_eq!((p.sa_pe_delay, p.sa_pe_bet), (1, 47));
        assert_eq!((p.sa_full_delay, p.sa_full_bet), (10, 469));
        assert_eq!((p.vu_delay, p.vu_bet), (2, 32));
        assert_eq!((p.hbm_delay, p.hbm_bet), (60, 412));
        assert_eq!((p.ici_delay, p.ici_bet), (60, 459));
        assert_eq!((p.sram_sleep_delay, p.sram_sleep_bet), (4, 41));
        assert_eq!((p.sram_off_delay, p.sram_off_bet), (10, 82));
    }

    #[test]
    fn default_leakage_ratios_match_paper() {
        let l = LeakageRatios::default();
        assert!((l.logic_off - 0.03).abs() < 1e-12);
        assert!((l.sram_sleep - 0.25).abs() < 1e-12);
        assert!((l.sram_off - 0.002).abs() < 1e-12);
        assert_eq!(l.label(), "0.03/0.25/0.002");
        assert_eq!(LeakageRatios::sensitivity_sweep().len(), 5);
    }

    #[test]
    fn component_lookup_is_consistent() {
        let p = GatingParams::default();
        assert_eq!(p.component_bet(ComponentKind::Vu), 32);
        assert_eq!(p.component_delay(ComponentKind::Hbm), 60);
        // The DMA engine wakes with the HBM path it feeds.
        assert_eq!(p.component_bet(ComponentKind::Dma), p.component_bet(ComponentKind::Hbm));
        assert_eq!(p.component_delay(ComponentKind::Dma), p.component_delay(ComponentKind::Hbm));
        assert_eq!(p.component_bet(ComponentKind::Other), u64::MAX);
        for kind in ComponentKind::GATEABLE {
            assert!(p.component_bet(kind) > p.component_delay(kind));
        }
    }

    #[test]
    fn delay_scaling() {
        let p = GatingParams::default().with_delay_scale(2.0);
        assert_eq!(p.vu_delay, 4);
        assert_eq!(p.vu_bet, 64);
        assert_eq!(p.sa_full_bet, 938);
        let tiny = GatingParams::default().with_delay_scale(0.1);
        assert!(tiny.sa_pe_delay >= 1, "delays never scale to zero");
    }

    #[test]
    fn leakage_override() {
        let leaky = GatingParams::default().with_leakage(LeakageRatios {
            logic_off: 0.6,
            sram_sleep: 0.8,
            sram_off: 0.4,
        });
        assert!((leaky.leakage.logic_off - 0.6).abs() < 1e-12);
        assert_eq!(leaky.vu_bet, 32, "timing parameters are unchanged");
    }

    #[test]
    fn short_intervals_stay_at_full_power() {
        for policy in [GatePolicy::IdleDetect, GatePolicy::CompilerDirected] {
            let eq = GatingParams::idle_interval_equivalent_cycles(30, 32, 2, 0.03, policy);
            assert!((eq - 30.0).abs() < 1e-12, "{policy:?}: below-BET interval not gated");
        }
    }

    #[test]
    fn break_even_boundary_is_inclusive() {
        // The paper: intervals *at least* the break-even time amortize the
        // transition energy. Pin both sides of the boundary so neither an
        // off-by-one towards `>` (exactly-break-even intervals silently
        // left at full power) nor towards `> bet - 1` can sneak back in.
        assert!(GatingParams::gates_interval(32, 32), "an exactly-BET interval breaks even");
        assert!(!GatingParams::gates_interval(32, 31), "one cycle short of the BET does not");
        for policy in [GatePolicy::IdleDetect, GatePolicy::CompilerDirected] {
            let at_bet = GatingParams::idle_interval_equivalent_cycles(32, 32, 2, 0.03, policy);
            assert!(at_bet < 32.0, "{policy:?}: the exactly-BET interval must be gated");
            let below = GatingParams::idle_interval_equivalent_cycles(31, 32, 2, 0.03, policy);
            assert!((below - 31.0).abs() < 1e-12, "{policy:?}: below-BET stays at full power");
        }
    }

    #[test]
    fn compiler_directed_beats_idle_detection_on_long_intervals() {
        // VU parameters: BET 32, delay 2. A 1,000-cycle interval costs a
        // 10.7-cycle detection window under hardware detection but only two
        // 2-cycle transitions under setpm.
        let hw = GatingParams::idle_interval_equivalent_cycles(
            1000,
            32,
            2,
            0.03,
            GatePolicy::IdleDetect,
        );
        let sw = GatingParams::idle_interval_equivalent_cycles(
            1000,
            32,
            2,
            0.03,
            GatePolicy::CompilerDirected,
        );
        assert!(sw < hw, "setpm ({sw}) must beat idle detection ({hw})");
        assert!(hw < 1000.0, "both must beat staying on");
        let expected_hw = 32.0 / 3.0 + (1000.0 - 32.0 / 3.0) * 0.03;
        assert!((hw - expected_hw).abs() < 1e-9);
        let expected_sw = 4.0 + 996.0 * 0.03;
        assert!((sw - expected_sw).abs() < 1e-9);
    }

    #[test]
    fn interval_walk_accumulates_statistics() {
        // Three intervals: 10 (below BET), 100 and 1,000 (gated).
        let summary = GatingParams::walk_idle_intervals(
            [10u64, 100, 1000].into_iter(),
            32,
            2,
            0.0,
            GatePolicy::CompilerDirected,
        );
        assert_eq!(summary.idle_cycles, 1110);
        assert_eq!(summary.gated_intervals, 2);
        assert_eq!(summary.gated_cycles, 1100);
        // With zero residual leakage only the short interval and the two
        // transition pairs burn power.
        assert!((summary.equivalent_cycles - (10.0 + 4.0 + 4.0)).abs() < 1e-9);
    }

    #[test]
    fn interval_walk_beats_aggregate_scaling_when_idleness_is_fragmented() {
        // 1,000 idle cycles in 100 ten-cycle fragments cannot be gated at
        // all (every fragment is below the VU's 32-cycle BET), while the
        // same 1,000 cycles in one interval nearly vanish — the effect the
        // aggregate-scaling model could never represent.
        let fragmented = GatingParams::walk_idle_intervals(
            std::iter::repeat_n(10u64, 100),
            32,
            2,
            0.03,
            GatePolicy::IdleDetect,
        );
        let contiguous = GatingParams::walk_idle_intervals(
            std::iter::once(1000u64),
            32,
            2,
            0.03,
            GatePolicy::IdleDetect,
        );
        assert_eq!(fragmented.idle_cycles, contiguous.idle_cycles);
        assert!((fragmented.equivalent_cycles - 1000.0).abs() < 1e-9);
        assert!(contiguous.equivalent_cycles < 50.0);
        assert_eq!(fragmented.gated_intervals, 0);
        assert_eq!(contiguous.gated_intervals, 1);
    }

    #[test]
    fn sram_gating_modes_map_to_table3_parameters() {
        let p = GatingParams::default();
        let drowsy = p.sram_gating(SramGateMode::Drowsy);
        assert_eq!((drowsy.bet, drowsy.delay), (41, 4));
        assert!((drowsy.leak - 0.25).abs() < 1e-12);
        assert_eq!(drowsy.policy, GatePolicy::IdleDetect);
        let off = p.sram_gating(SramGateMode::Off);
        assert_eq!((off.bet, off.delay), (82, 10));
        assert!((off.leak - 0.002).abs() < 1e-12);
        assert_eq!(off.policy, GatePolicy::CompilerDirected);
        // Off is the deeper state: leakier entry threshold, lower residual.
        assert!(off.bet > drowsy.bet);
        assert!(off.leak < drowsy.leak);
    }

    #[test]
    fn sram_off_beats_drowsy_on_long_dead_intervals() {
        // A segment dead for 10,000 cycles: drowsy retains state at 25%
        // leakage, off drops to 0.2% — the §4.3 argument for compiler-
        // directed segment power-off when the data is provably dead.
        let p = GatingParams::default();
        let d = p.sram_gating(SramGateMode::Drowsy);
        let o = p.sram_gating(SramGateMode::Off);
        let drowsy_eq =
            GatingParams::idle_interval_equivalent_cycles(10_000, d.bet, d.delay, d.leak, d.policy);
        let off_eq =
            GatingParams::idle_interval_equivalent_cycles(10_000, o.bet, o.delay, o.leak, o.policy);
        assert!(off_eq < drowsy_eq, "off ({off_eq}) must beat drowsy ({drowsy_eq})");
        assert!(drowsy_eq < 10_000.0, "both must beat staying fully on");
    }

    #[test]
    fn default_parameters_are_self_consistent() {
        assert!(GatingParams::default().consistency().is_empty());
        // The sensitivity sweeps stay inside the consistent region too.
        for leakage in LeakageRatios::sensitivity_sweep() {
            let p = GatingParams::default().with_leakage(leakage);
            assert!(p.consistency().is_empty(), "leakage {} breaks consistency", leakage.label());
        }
        for scale in [0.25, 0.5, 2.0, 4.0] {
            let p = GatingParams::default().with_delay_scale(scale);
            assert!(p.consistency().is_empty(), "delay scale {scale} breaks consistency");
        }
    }

    #[test]
    fn bet_below_amortization_is_detected() {
        // A BET below twice the transition delay: a compiler-directed
        // down/up pair cannot amortize inside an exactly-BET interval.
        let p = GatingParams { vu_bet: 3, vu_delay: 2, ..GatingParams::default() };
        let violations = p.consistency();
        assert!(violations
            .iter()
            .any(|v| v.rule == GatingRule::BetBelowAmortization && v.component == "VU"));
        assert!(violations.iter().all(|v| v.rule == GatingRule::BetBelowAmortization));
    }

    #[test]
    fn sram_mode_misordering_is_detected() {
        let p = GatingParams { sram_off_bet: 10, ..GatingParams::default() };
        assert!(p.consistency().iter().any(|v| v.rule == GatingRule::SramModeOrdering));
        let leaky_off = GatingParams::default().with_leakage(LeakageRatios {
            logic_off: 0.03,
            sram_sleep: 0.25,
            sram_off: 0.5,
        });
        assert!(leaky_off.consistency().iter().any(|v| v.rule == GatingRule::SramModeOrdering));
    }

    #[test]
    fn leakage_out_of_range_is_detected() {
        let p = GatingParams::default().with_leakage(LeakageRatios {
            logic_off: 1.5,
            sram_sleep: 0.25,
            sram_off: 0.002,
        });
        let violations = p.consistency();
        assert!(violations.iter().any(|v| v.rule == GatingRule::LeakageOutOfRange));
        let negative = GatingParams::default().with_leakage(LeakageRatios {
            logic_off: 0.03,
            sram_sleep: -0.1,
            sram_off: 0.002,
        });
        assert!(negative
            .consistency()
            .iter()
            .any(|v| v.rule == GatingRule::LeakageOutOfRange && v.component == "SRAM sleep"));
    }

    #[test]
    fn max_component_delay_spans_the_gateable_set() {
        let p = GatingParams::default();
        assert_eq!(p.max_component_delay(), 60, "HBM/ICI are the slowest to wake");
        assert_eq!(p.with_delay_scale(2.0).max_component_delay(), 120);
    }

    #[test]
    fn area_overhead_defaults() {
        let a = AreaOverhead::default();
        assert!((a.total_chip_fraction - 0.033).abs() < 1e-12);
        assert!(a.per_pe_fraction < 0.07);
        assert!(
            a.sa_chip_fraction + a.vu_chip_fraction + a.sram_chip_fraction
                < a.total_chip_fraction + 1e-3
        );
    }
}
