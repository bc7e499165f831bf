//! Pod-level static-energy accounting over the engine's per-resource
//! timeline: per-component interval gating on every chip unit and every
//! ICI link, optionally stacked with *whole-chip* gating of the intervals
//! in which a chip's entire resource set is idle.
//!
//! Pipeline-parallel serving is the motivating shape: with imbalanced
//! stages the off-critical chips sit in long chip-wide bubbles.
//! Per-component gating already empties the systolic arrays, vector
//! units, and memory interfaces inside those bubbles, but the peripheral
//! (uncore) logic has no per-component policy — only a chip-level walk
//! over the union-idle intervals can recover its static power. This
//! module prices exactly that delta on a multi-chip [`Schedule`].

use npu_arch::{ComponentKind, NpuSpec};
use npu_power::{GatingParams, PowerModel, PowerPolicy};
use npu_sim::{CycleInterval, Resource, ResourceId, Schedule};

use crate::designs::Design;
use crate::policy::{whole_chip_policy, GapLengths, PolicyKind};

/// Static-energy accounting of one pod schedule, in watt-cycles (static
/// watts × cycles; the cycle time cancels out of every ratio).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PodGatingReport {
    /// Ungated cost: every resource fully on for the whole makespan.
    pub baseline_watt_cycles: f64,
    /// Cost under per-component interval gating alone (chip units and
    /// links walk their own idle gaps; SRAM and uncore stay on).
    pub per_component_watt_cycles: f64,
    /// Cost under per-component gating *plus* chip-level gating of each
    /// chip's whole-chip idle intervals (the uncore gates inside them).
    pub whole_chip_watt_cycles: f64,
}

impl PodGatingReport {
    /// Static-energy savings of per-component gating over the ungated
    /// baseline.
    #[must_use]
    pub fn per_component_savings(&self) -> f64 {
        if self.baseline_watt_cycles == 0.0 {
            return 0.0;
        }
        1.0 - self.per_component_watt_cycles / self.baseline_watt_cycles
    }

    /// Static-energy savings of per-component *plus* whole-chip gating
    /// over the ungated baseline.
    #[must_use]
    pub fn whole_chip_savings(&self) -> f64 {
        if self.baseline_watt_cycles == 0.0 {
            return 0.0;
        }
        1.0 - self.whole_chip_watt_cycles / self.baseline_watt_cycles
    }

    /// The delta only chip-level gating can deliver (fraction of the
    /// baseline static energy).
    #[must_use]
    pub fn whole_chip_gain(&self) -> f64 {
        self.whole_chip_savings() - self.per_component_savings()
    }
}

/// Prices the static energy of a pod schedule three ways — ungated,
/// per-component gating, per-component plus whole-chip gating — over its
/// per-resource timeline ([`npu_sim::ResourceTimeline`]).
///
/// Every chip unit and link walks its idle gaps under the `ReGate-Base`
/// preset's policy for its component; the whole-chip variant adds the
/// chip-level walk `WholeChipFull` uses over each chip's whole-chip idle
/// intervals.
///
/// Weighting: each chip unit carries its component's static power from
/// `spec`'s power model (the HBM/DMA resource carries both shares); when
/// the set has ICI links, the pod's aggregate ICI static power is split
/// evenly across them (the per-chip ICI unit is then unweighted — pod
/// traffic lives on the links); SRAM stays fully powered under both gated
/// variants (segment-level gating is priced elsewhere); the uncore is the
/// only component the whole-chip variant treats differently.
#[must_use]
pub fn pod_static_gating(
    schedule: &Schedule,
    gating: &GatingParams,
    spec: &NpuSpec,
) -> PodGatingReport {
    let model = PowerModel::new(spec);
    let set = schedule.resources;
    let tl = &schedule.resource_timeline;
    let total = schedule.makespan;
    let base = PolicyKind::Preset(Design::ReGateBase).config(gating, spec);
    let chip_policy = whole_chip_policy(gating);
    // Equivalent full-power cycles of one resource: busy cycles plus its
    // walked idle gaps.
    let walked = |policy: &dyn PowerPolicy, id: ResourceId| {
        let gaps = tl.idle_intervals(id, total);
        tl.busy_cycles(id) as f64 + GapLengths::of(&gaps, total).walk(policy).equivalent_cycles
    };

    let mut baseline = 0.0f64;
    let mut per_component = 0.0f64;
    let mut whole_chip = 0.0f64;
    let mut add = |weight_w: f64, ungated: f64, gated: f64, chip_gated: f64| {
        baseline += weight_w * ungated;
        per_component += weight_w * gated;
        whole_chip += weight_w * chip_gated;
    };

    for chip in 0..set.num_chips() {
        for kind in [Resource::Sa, Resource::Vu, Resource::HbmDma, Resource::Ici] {
            let (weight_w, policy) = match kind {
                Resource::Sa => (model.static_power_w(ComponentKind::Sa), &base.sa_idle),
                Resource::Vu => (model.static_power_w(ComponentKind::Vu), &base.vu),
                Resource::HbmDma => (
                    model.static_power_w(ComponentKind::Hbm)
                        + model.static_power_w(ComponentKind::Dma),
                    &base.hbm,
                ),
                Resource::Ici => {
                    if set.num_links() > 0 {
                        // Pod traffic lives on the link resources below.
                        continue;
                    }
                    (model.static_power_w(ComponentKind::Ici), &base.ici)
                }
            };
            let eq = walked(policy.as_ref(), set.unit(chip, kind));
            add(weight_w, total as f64, eq, eq);
        }
        // SRAM: segment-level gating is a different mechanism; keep it
        // fully on so the comparison isolates the uncore delta.
        add(model.static_power_w(ComponentKind::Sram), total as f64, total as f64, total as f64);
        // Uncore: always on under per-component gating, walked over the
        // whole-chip idle intervals under chip-level gating.
        let bubbles = tl.chip_idle_intervals(&set, chip, total);
        let bubble_cycles: u64 = bubbles.iter().map(CycleInterval::len).sum();
        let chip_eq = (total - bubble_cycles) as f64
            + GapLengths::of(&bubbles, total).walk(&chip_policy).equivalent_cycles;
        add(model.static_power_w(ComponentKind::Other), total as f64, total as f64, chip_eq);
    }

    // ICI links: the pod's aggregate ICI static power, split evenly.
    if set.num_links() > 0 {
        let link_w = model.static_power_w(ComponentKind::Ici) * set.num_chips() as f64
            / set.num_links() as f64;
        for l in 0..set.num_links() {
            let eq = walked(base.ici.as_ref(), set.link(l));
            add(link_w, total as f64, eq, eq);
        }
    }

    PodGatingReport {
        baseline_watt_cycles: baseline,
        per_component_watt_cycles: per_component,
        whole_chip_watt_cycles: whole_chip,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_arch::{LinkGraph, NpuGeneration, PodTopology, TorusKind};
    use npu_sim::pod::pipeline_trace;

    fn report(stage_cycles: &[u64]) -> PodGatingReport {
        let graph = LinkGraph::torus(&PodTopology::for_chips(TorusKind::Torus2D, 4));
        let schedule = pipeline_trace(&graph, stage_cycles, 8).engine().run();
        pod_static_gating(
            &schedule,
            &GatingParams::default(),
            &NpuSpec::generation(NpuGeneration::D),
        )
    }

    #[test]
    fn whole_chip_gating_never_loses_to_per_component_alone() {
        let r = report(&[20_000; 4]);
        assert!(r.baseline_watt_cycles > 0.0);
        assert!(r.per_component_savings() > 0.0);
        assert!(r.whole_chip_savings() >= r.per_component_savings());
        // Even balanced stages leave fill/drain bubbles longer than the
        // chip-level break-even time: the gain is strictly positive.
        assert!(r.whole_chip_gain() > 0.0, "gain {}", r.whole_chip_gain());
    }

    #[test]
    fn imbalanced_stages_widen_the_whole_chip_gap() {
        let balanced = report(&[20_000; 4]);
        let imbalanced = report(&[20_000, 80_000, 20_000, 20_000]);
        assert!(
            imbalanced.whole_chip_gain() > balanced.whole_chip_gain(),
            "imbalanced gain {} <= balanced gain {}",
            imbalanced.whole_chip_gain(),
            balanced.whole_chip_gain()
        );
    }
}
