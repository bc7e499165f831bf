//! Power-over-time telemetry: folding per-component gating walks into a
//! piecewise-constant watts(t) waveform.
//!
//! The energy model ([`EnergyBreakdown`](crate::EnergyBreakdown)) prices a
//! run as *totals* — joules per component, summed over the whole
//! execution. This module keeps the identical arithmetic but preserves the
//! *time axis*: each component's busy intervals burn static plus
//! (uniformly spread) dynamic power, each idle gap either stays at full
//! static power (below the break-even time) or splits into the policy's
//! full-power entry window followed by the residual-leakage plateau —
//! exactly the per-interval terms of
//! [`GatingParams::idle_interval_equivalent_cycles`], so the integral of
//! the waveform reproduces the breakdown's totals to within f64 rounding.
//! That identity is the layer's correctness contract and is pinned by
//! tests here and cross-checked at export time by the `trace_export`
//! harness.
//!
//! Waveforms export two ways: [`PowerTimeline::counter_samples`] feeds a
//! trace recorder's counter tracks (watts over cycles, one track per
//! component), and [`PowerTimeline::waveform_json`] renders a
//! deterministic standalone JSON document.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use npu_arch::ComponentKind;

use crate::gating::{ComponentGating, GatingParams};

/// One step of a piecewise-constant power waveform: `watts` over
/// `[start_cycle, end_cycle)`. Boundaries are `f64` because idle-detection
/// entry windows (a third of the break-even time) can be fractional.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerStep {
    /// First cycle the level applies to.
    pub start_cycle: f64,
    /// First cycle after the step.
    pub end_cycle: f64,
    /// Power level over the step, in watts.
    pub watts: f64,
}

impl PowerStep {
    /// Width of the step in cycles.
    #[must_use]
    pub fn cycles(&self) -> f64 {
        self.end_cycle - self.start_cycle
    }
}

/// One component's watts(t) waveform plus its gating statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentWaveform {
    kind: ComponentKind,
    static_w: f64,
    dynamic_j: f64,
    steps: Vec<PowerStep>,
    gated_intervals: u64,
    wakeups: u64,
}

impl ComponentWaveform {
    /// The component the waveform describes.
    #[must_use]
    pub fn kind(&self) -> ComponentKind {
        self.kind
    }

    /// The piecewise-constant steps, contiguous from cycle 0 to the
    /// makespan, adjacent equal levels coalesced.
    #[must_use]
    pub fn steps(&self) -> &[PowerStep] {
        &self.steps
    }

    /// Idle gaps long enough to gate (each one implies a power-down /
    /// power-up transition pair).
    #[must_use]
    pub fn gated_intervals(&self) -> u64 {
        self.gated_intervals
    }

    /// Gated gaps followed by more work — the wake-ups a running
    /// execution actually pays (a gated gap that ends the run never
    /// wakes).
    #[must_use]
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    /// Integral of the waveform in joules, given the cycle length.
    #[must_use]
    pub fn energy_j(&self, seconds_per_cycle: f64) -> f64 {
        self.steps.iter().map(|s| s.watts * s.cycles() * seconds_per_cycle).sum()
    }
}

/// A chip's power-over-time telemetry: one watts(t) waveform per
/// component, all spanning the same `[0, makespan)` window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTimeline {
    seconds_per_cycle: f64,
    makespan_cycles: u64,
    components: Vec<ComponentWaveform>,
}

impl PowerTimeline {
    /// An empty timeline over a `[0, makespan_cycles)` window.
    ///
    /// # Panics
    ///
    /// Panics unless `seconds_per_cycle` is finite and positive.
    #[must_use]
    pub fn new(seconds_per_cycle: f64, makespan_cycles: u64) -> Self {
        assert!(
            seconds_per_cycle.is_finite() && seconds_per_cycle > 0.0,
            "seconds_per_cycle must be finite and positive, got {seconds_per_cycle}"
        );
        PowerTimeline { seconds_per_cycle, makespan_cycles, components: Vec::new() }
    }

    /// Seconds per cycle the integrals use.
    #[must_use]
    pub fn seconds_per_cycle(&self) -> f64 {
        self.seconds_per_cycle
    }

    /// The window's end, in cycles.
    #[must_use]
    pub fn makespan_cycles(&self) -> u64 {
        self.makespan_cycles
    }

    /// Folds one component into the timeline. `busy` holds the
    /// component's merged busy intervals (`[start, end)` cycle pairs,
    /// sorted, disjoint, inside the makespan): each burns `static_w` plus
    /// `dynamic_j` spread uniformly over the busy cycles. Gaps follow
    /// `gating` — `None` (or a gap below the break-even time) stays at
    /// full static power; a gated gap pays the policy's entry window at
    /// full power and the residual-leakage plateau after it, exactly the
    /// terms of [`GatingParams::idle_interval_equivalent_cycles`].
    ///
    /// # Panics
    ///
    /// Panics if `busy` is unsorted/overlapping, reaches past the
    /// makespan, or carries dynamic energy with zero busy cycles.
    pub fn add_component(
        &mut self,
        kind: ComponentKind,
        static_w: f64,
        dynamic_j: f64,
        busy: &[(u64, u64)],
        gating: Option<ComponentGating>,
    ) {
        let mut cursor = 0u64;
        let mut busy_cycles = 0u64;
        for &(start, end) in busy {
            assert!(
                start >= cursor && end >= start && end <= self.makespan_cycles,
                "busy intervals must be sorted, disjoint, and inside the makespan \
                 (got [{start}, {end}) after cycle {cursor} in a {}-cycle window)",
                self.makespan_cycles
            );
            cursor = end;
            busy_cycles += end - start;
        }
        assert!(
            busy_cycles > 0 || dynamic_j == 0.0,
            "{dynamic_j} J of dynamic energy with zero busy cycles has no time to burn in"
        );
        let dynamic_w = if busy_cycles > 0 {
            dynamic_j / (busy_cycles as f64 * self.seconds_per_cycle)
        } else {
            0.0
        };

        let mut wave = ComponentWaveform {
            kind,
            static_w,
            dynamic_j,
            steps: Vec::new(),
            gated_intervals: 0,
            wakeups: 0,
        };
        let mut cursor = 0u64;
        for &(start, end) in busy {
            if start > cursor {
                fold_gap(&mut wave, cursor, start, static_w, gating, false);
            }
            push_step(&mut wave.steps, start as f64, end as f64, static_w + dynamic_w);
            cursor = end;
        }
        if cursor < self.makespan_cycles {
            fold_gap(&mut wave, cursor, self.makespan_cycles, static_w, gating, true);
        }
        self.components.push(wave);
    }

    /// Every component waveform, in insertion order.
    #[must_use]
    pub fn components(&self) -> &[ComponentWaveform] {
        &self.components
    }

    /// One component's waveform, if it was added.
    #[must_use]
    pub fn component(&self, kind: ComponentKind) -> Option<&ComponentWaveform> {
        self.components.iter().find(|c| c.kind == kind)
    }

    /// Integral of one component's waveform, in joules.
    #[must_use]
    pub fn component_energy_j(&self, kind: ComponentKind) -> f64 {
        self.component(kind).map_or(0.0, |c| c.energy_j(self.seconds_per_cycle))
    }

    /// Integral of every waveform, in joules — the quantity the energy
    /// cross-check compares against an
    /// [`EnergyBreakdown`](crate::EnergyBreakdown) built from the same
    /// busy intervals and gating walks.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.components.iter().map(|c| c.energy_j(self.seconds_per_cycle)).sum()
    }

    /// Whether the waveform integral agrees with an externally computed
    /// total within a relative tolerance (the "to within rounding"
    /// contract; summation-order noise sits around 1e-15).
    #[must_use]
    pub fn energy_matches(&self, expected_j: f64, rel_tol: f64) -> bool {
        let total = self.total_energy_j();
        (total - expected_j).abs() <= rel_tol * expected_j.abs().max(1.0)
    }

    /// One component's waveform as `(cycle, watts)` counter samples for a
    /// trace recorder's counter track: one sample per step start plus a
    /// closing zero at the makespan.
    #[must_use]
    pub fn counter_samples(&self, kind: ComponentKind) -> Option<Vec<(f64, f64)>> {
        let wave = self.component(kind)?;
        let mut samples: Vec<(f64, f64)> =
            wave.steps.iter().map(|s| (s.start_cycle, s.watts)).collect();
        samples.push((self.makespan_cycles as f64, 0.0));
        Some(samples)
    }

    /// Renders the timeline as a deterministic standalone JSON document:
    /// per-component steps as `[start_cycle, end_cycle, watts]` triples
    /// plus the gating statistics and energy integrals.
    #[must_use]
    pub fn waveform_json(&self) -> String {
        let mut out = String::from("{\"schema_version\":1,");
        let _ = write!(
            out,
            "\"seconds_per_cycle\":{},\"makespan_cycles\":{},\"components\":[",
            self.seconds_per_cycle, self.makespan_cycles
        );
        for (index, wave) in self.components.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kind\":\"{}\",\"static_w\":{},\"dynamic_j\":{},\"gated_intervals\":{},\
                 \"wakeups\":{},\"energy_j\":{},\"steps\":[",
                wave.kind,
                wave.static_w,
                wave.dynamic_j,
                wave.gated_intervals,
                wave.wakeups,
                wave.energy_j(self.seconds_per_cycle)
            );
            for (si, step) in wave.steps.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{},{}]", step.start_cycle, step.end_cycle, step.watts);
            }
            out.push_str("]}");
        }
        let _ = write!(out, "],\"total_energy_j\":{}}}", self.total_energy_j());
        out.push('\n');
        out
    }
}

/// Appends a step, coalescing into the previous one when the level is
/// identical and the steps abut.
fn push_step(steps: &mut Vec<PowerStep>, start: f64, end: f64, watts: f64) {
    if end <= start {
        return;
    }
    if let Some(last) = steps.last_mut() {
        if last.end_cycle == start && last.watts == watts {
            last.end_cycle = end;
            return;
        }
    }
    steps.push(PowerStep { start_cycle: start, end_cycle: end, watts });
}

/// Folds one idle gap into a waveform under the component's gating: full
/// static power when ungated or below the break-even time, otherwise the
/// policy's entry window at full power followed by the residual plateau.
fn fold_gap(
    wave: &mut ComponentWaveform,
    start: u64,
    end: u64,
    static_w: f64,
    gating: Option<ComponentGating>,
    trailing: bool,
) {
    let len = end - start;
    let (start, end) = (start as f64, end as f64);
    let gated = gating.filter(|g| GatingParams::gates_interval(g.bet, len)).filter(|_| len > 0);
    let Some(g) = gated else {
        push_step(&mut wave.steps, start, end, static_w);
        return;
    };
    let entry = GatingParams::entry_cycles(len, g.bet, g.delay, g.policy);
    push_step(&mut wave.steps, start, start + entry, static_w);
    push_step(&mut wave.steps, start + entry, end, g.leak * static_w);
    wave.gated_intervals += 1;
    if !trailing {
        wave.wakeups += 1;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use npu_arch::{NpuGeneration, NpuSpec};

    use super::*;
    use crate::energy::{ChipUsage, EnergyBreakdown};
    use crate::gating::{GatePolicy, SramGateMode};
    use crate::power::PowerModel;

    const SPC: f64 = 1e-9;

    #[test]
    fn ungated_component_burns_constant_static_power() {
        let mut tl = PowerTimeline::new(SPC, 1_000);
        tl.add_component(ComponentKind::Other, 5.0, 0.0, &[], None);
        let wave = tl.component(ComponentKind::Other).expect("waveform");
        assert_eq!(wave.steps().len(), 1, "one coalesced full-window step");
        assert_eq!(wave.gated_intervals(), 0);
        let expected = 5.0 * 1_000.0 * SPC;
        assert!((tl.total_energy_j() - expected).abs() < 1e-15);
    }

    #[test]
    fn waveform_integral_matches_the_interval_walk() {
        // VU-style gating over two busy bursts and three gaps (the middle
        // gap is below the BET and must stay at full power).
        let gating =
            ComponentGating { bet: 32, delay: 2, leak: 0.03, policy: GatePolicy::CompilerDirected };
        let busy = [(100u64, 200u64), (210, 300), (1_000, 1_200)];
        let makespan = 2_000u64;
        let static_w = 3.0;
        let dynamic_j = 4.5e-7;
        let mut tl = PowerTimeline::new(SPC, makespan);
        tl.add_component(ComponentKind::Vu, static_w, dynamic_j, &busy, Some(gating));

        let gaps = [100u64, 10, 700, 800];
        let walk = GatingParams::walk_idle_intervals(
            gaps.iter().copied(),
            gating.bet,
            gating.delay,
            gating.leak,
            gating.policy,
        );
        let busy_cycles: u64 = busy.iter().map(|(s, e)| e - s).sum();
        let expected = static_w * (busy_cycles as f64 + walk.equivalent_cycles) * SPC + dynamic_j;
        let total = tl.total_energy_j();
        assert!(
            (total - expected).abs() <= 1e-12 * expected,
            "waveform integral {total} vs interval walk {expected}"
        );
        let wave = tl.component(ComponentKind::Vu).expect("waveform");
        assert_eq!(wave.gated_intervals(), 3);
        assert_eq!(wave.wakeups(), 2, "the trailing gated gap never wakes");
    }

    #[test]
    fn integral_cross_checks_against_the_energy_breakdown() {
        // Build the same run two ways — EnergyBreakdown::gated over
        // walked equivalent-seconds, and the waveform fold — and require
        // agreement to within rounding for every gateable component.
        let spec = NpuSpec::generation(NpuGeneration::D);
        let model = PowerModel::new(&spec);
        let params = GatingParams::default();
        let makespan = 50_000u64;
        let spc = spec.cycle_seconds();
        let busy: BTreeMap<ComponentKind, Vec<(u64, u64)>> = [
            (ComponentKind::Sa, vec![(0u64, 20_000u64), (30_000, 45_000)]),
            (ComponentKind::Vu, vec![(5_000, 21_000), (21_005, 40_000)]),
            (ComponentKind::Hbm, vec![(0, 18_000), (26_000, 50_000)]),
            (ComponentKind::Ici, vec![]),
            (ComponentKind::Dma, vec![(100, 17_000)]),
            (ComponentKind::Sram, vec![(0, 44_000)]),
            (ComponentKind::Other, vec![(0, 50_000)]),
        ]
        .into_iter()
        .collect();

        let usage = ChipUsage {
            busy_seconds: makespan as f64 * spc,
            sa_flops: 1e12,
            vu_flops: 2e11,
            hbm_bytes: 3e9,
            ici_bytes: 0.0,
            sram_bytes: 9e9,
            dma_bytes: 3e9,
        };
        let baseline = EnergyBreakdown::no_power_gating_with_duty(&model, &usage, 1.0);

        let mut tl = PowerTimeline::new(spc, makespan);
        let mut equivalent_seconds = BTreeMap::new();
        for kind in ComponentKind::ALL {
            let intervals = &busy[&kind];
            let gating = ComponentGating::for_kind(&params, kind, SramGateMode::Drowsy);
            tl.add_component(
                kind,
                model.static_power_w(kind),
                baseline.component(kind).dynamic_j,
                intervals,
                gating,
            );
            let mut gaps = Vec::new();
            let mut cursor = 0u64;
            for &(s, e) in intervals {
                if s > cursor {
                    gaps.push(s - cursor);
                }
                cursor = e;
            }
            if cursor < makespan {
                gaps.push(makespan - cursor);
            }
            let busy_cycles: u64 = intervals.iter().map(|(s, e)| e - s).sum();
            let eq = match gating {
                None => makespan as f64,
                Some(g) => {
                    let walk = GatingParams::walk_idle_intervals(
                        gaps.into_iter(),
                        g.bet,
                        g.delay,
                        g.leak,
                        g.policy,
                    );
                    busy_cycles as f64 + walk.equivalent_cycles
                }
            };
            equivalent_seconds.insert(kind, eq * spc);
        }
        let gated = EnergyBreakdown::gated(&baseline, &model, &equivalent_seconds, 0.0, 0.0);
        assert!(
            tl.energy_matches(gated.total_j(), 1e-9),
            "waveform {} J vs breakdown {} J",
            tl.total_energy_j(),
            gated.total_j()
        );
        for kind in ComponentKind::ALL {
            let wave_j = tl.component_energy_j(kind);
            let breakdown_j = gated.component(kind).total_j();
            assert!(
                (wave_j - breakdown_j).abs() <= 1e-9 * breakdown_j.abs().max(1e-12),
                "{kind}: waveform {wave_j} J vs breakdown {breakdown_j} J"
            );
        }
    }

    #[test]
    fn counter_samples_step_at_boundaries_and_close_at_zero() {
        let gating =
            ComponentGating { bet: 30, delay: 5, leak: 0.0, policy: GatePolicy::CompilerDirected };
        let mut tl = PowerTimeline::new(SPC, 300);
        tl.add_component(ComponentKind::Sa, 2.0, 0.0, &[(0, 100)], Some(gating));
        let samples = tl.counter_samples(ComponentKind::Sa).expect("samples");
        // Busy+entry coalesce at 2.0 W, then the plateau, then the close.
        assert_eq!(samples, vec![(0.0, 2.0), (110.0, 0.0), (300.0, 0.0)]);
        assert!(tl.counter_samples(ComponentKind::Hbm).is_none());
    }

    #[test]
    fn waveform_json_is_deterministic_and_tagged() {
        let mut tl = PowerTimeline::new(SPC, 500);
        tl.add_component(ComponentKind::Sa, 2.0, 1e-8, &[(50, 400)], None);
        let json = tl.waveform_json();
        assert!(json.starts_with("{\"schema_version\":1,"));
        assert!(json.contains("\"kind\":\"SA\""));
        assert!(json.contains("\"components\":["));
        assert_eq!(json, tl.waveform_json());
    }

    #[test]
    #[should_panic(expected = "sorted, disjoint")]
    fn overlapping_busy_intervals_are_rejected() {
        let mut tl = PowerTimeline::new(SPC, 1_000);
        tl.add_component(ComponentKind::Sa, 1.0, 0.0, &[(0, 100), (50, 200)], None);
    }

    #[test]
    fn for_kind_maps_components_to_their_gating_bundles() {
        let params = GatingParams::default();
        let sa = ComponentGating::for_kind(&params, ComponentKind::Sa, SramGateMode::Drowsy)
            .expect("SA gates");
        assert_eq!((sa.bet, sa.delay), (469, 10));
        let sram = ComponentGating::for_kind(&params, ComponentKind::Sram, SramGateMode::Off)
            .expect("SRAM gates");
        assert_eq!(sram.policy, GatePolicy::CompilerDirected);
        assert!((sram.leak - 0.002).abs() < 1e-12);
        assert!(ComponentGating::for_kind(&params, ComponentKind::Other, SramGateMode::Drowsy)
            .is_none());
    }
}
