//! Multi-chip (pod) phase-graph construction over a [`ResourceSet`].
//!
//! The timeline engine schedules whatever resource instances its
//! [`ResourceSet`] declares; this module is the layer that builds such
//! sets from an explicit fabric ([`npu_arch::LinkGraph`]), addresses
//! per-chip units, maps the compiler's per-hop collective plans onto link
//! resources, and assembles reference pod traces (the pipeline-parallel
//! decode trace whose stage bubbles whole-chip gating targets).

use npu_arch::LinkGraph;
use npu_compiler::CollectivePlan;

use crate::engine::DISPATCH_OVERHEAD_CYCLES;
use crate::timeline::{
    CollectiveSchedule, OpPhases, PhaseGraph, Resource, ResourceSet, TimelineEngine,
};

/// Maps a compiler [`CollectivePlan`] onto the link resources of a
/// [`ResourceSet`] — the glue between the compiler's fabric-relative link
/// ids and the engine's dense resource ids. Link ids outside the set are
/// kept as (invalid) ids so the `topo.*` analyzer pass can flag them
/// rather than silently dropping traffic.
#[must_use]
pub fn collective_schedule(plan: &CollectivePlan, set: &ResourceSet) -> CollectiveSchedule {
    CollectiveSchedule {
        links: plan.links.iter().map(|&l| set.link_unchecked(l)).collect(),
        step_cycles: plan.step_cycles.clone(),
    }
}

/// Incrementally builds a pod [`PhaseGraph`] against the resource set of
/// an explicit fabric: one resource per chip unit, one per ICI link.
#[derive(Debug)]
pub struct PodBuilder {
    set: ResourceSet,
    phases: PhaseGraph,
}

impl PodBuilder {
    /// A builder for the pod a link graph wires.
    #[must_use]
    pub fn new(graph: &LinkGraph) -> Self {
        PodBuilder {
            set: ResourceSet::pod(graph.num_chips(), graph.num_links()),
            phases: PhaseGraph::default(),
        }
    }

    /// The resource set phases are addressed against.
    #[must_use]
    pub fn resources(&self) -> ResourceSet {
        self.set
    }

    /// Number of operators pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether no operator has been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Pushes a compute/transfer operator on one chip's unit of the given
    /// kind and returns its index. `producers` are indices of earlier
    /// operators.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is outside the pod.
    pub fn push_unit(
        &mut self,
        chip: usize,
        kind: Resource,
        main_cycles: u64,
        dma_cycles: u64,
        producers: impl IntoIterator<Item = usize>,
    ) -> usize {
        let sa_active = if kind == Resource::Sa { main_cycles } else { 0 };
        let op = OpPhases {
            unit: self.set.unit(chip, kind),
            main_cycles,
            dma_cycles,
            dma_lead_cycles: (dma_cycles / 4).min(dma_cycles),
            fused_vu_cycles: 0,
            dispatch_cycles: DISPATCH_OVERHEAD_CYCLES,
            sa_active_cycles: sa_active,
            collective: None,
        };
        self.phases.push(op, producers)
    }

    /// Pushes a lowered collective occupying the plan's links and returns
    /// its index.
    pub fn push_collective(
        &mut self,
        plan: &CollectivePlan,
        producers: impl IntoIterator<Item = usize>,
    ) -> usize {
        let schedule = collective_schedule(plan, &self.set);
        let unit = schedule.links.first().copied().unwrap_or(self.set.unit(0, Resource::Ici));
        let op = OpPhases {
            unit,
            main_cycles: schedule.total_cycles(),
            dma_cycles: 0,
            dma_lead_cycles: 0,
            fused_vu_cycles: 0,
            dispatch_cycles: DISPATCH_OVERHEAD_CYCLES,
            sa_active_cycles: 0,
            collective: Some(Box::new(schedule)),
        };
        self.phases.push(op, producers)
    }

    /// The phase graph built so far.
    #[must_use]
    pub fn phases(&self) -> &PhaseGraph {
        &self.phases
    }

    /// Finishes the builder into a runnable engine.
    #[must_use]
    pub fn engine(self) -> TimelineEngine {
        TimelineEngine::with_resources(self.phases, self.set)
    }
}

/// Builds a pipeline-parallel decode trace on a pod: stage `s` of
/// microbatch `m` runs on chip `s`'s systolic arrays for
/// `stage_cycles[s]` cycles and depends on stage `s-1` of the same
/// microbatch and stage `s` of the previous one (the classic 1F1B-style
/// dependence frontier). With imbalanced stages the off-critical chips
/// sit in whole-chip bubbles — exactly the intervals chip-level gating
/// recovers and per-component gating already could, minus the
/// uncore/peripheral power only a whole-chip walk can cut.
///
/// # Panics
///
/// Panics if `stage_cycles` does not cover the graph's chips or
/// `microbatches` is zero.
#[must_use]
pub fn pipeline_trace(graph: &LinkGraph, stage_cycles: &[u64], microbatches: usize) -> PodBuilder {
    assert_eq!(stage_cycles.len(), graph.num_chips(), "one pipeline stage per chip of the pod");
    assert!(microbatches > 0, "a pipeline trace needs at least one microbatch");
    let stages = stage_cycles.len();
    let mut builder = PodBuilder::new(graph);
    let mut index = vec![0usize; stages];
    for m in 0..microbatches {
        for (s, &cycles) in stage_cycles.iter().enumerate() {
            // Stage `s-1` of this microbatch, then stage `s` of the previous one.
            let producers =
                (s > 0).then(|| index[s - 1]).into_iter().chain((m > 0).then_some(index[s]));
            index[s] = builder.push_unit(s, Resource::Sa, cycles, 0, producers);
        }
    }
    builder
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_arch::{PodTopology, TorusKind};
    use npu_models::CollectiveKind;

    #[test]
    fn builder_set_matches_the_fabric() {
        let graph = LinkGraph::torus(&PodTopology::for_chips(TorusKind::Torus2D, 4));
        let builder = PodBuilder::new(&graph);
        assert_eq!(builder.resources().num_chips(), 4);
        assert_eq!(builder.resources().num_links(), graph.num_links());
        assert!(builder.is_empty());
    }

    #[test]
    fn collective_schedule_addresses_link_resources() {
        let graph = LinkGraph::torus(&PodTopology::for_chips(TorusKind::Torus3D, 8));
        let set = ResourceSet::pod(graph.num_chips(), graph.num_links());
        let plan = CollectivePlan::lower(CollectiveKind::AllReduce, 14_000, &graph);
        let schedule = collective_schedule(&plan, &set);
        assert_eq!(schedule.total_cycles(), 14_000);
        for (rid, &l) in schedule.links.iter().zip(&plan.links) {
            assert_eq!(set.link_of(*rid), Some(l));
        }
    }

    #[test]
    fn pipeline_trace_overlaps_stages_across_microbatches() {
        let graph = LinkGraph::torus(&PodTopology::for_chips(TorusKind::Torus2D, 4));
        let balanced = pipeline_trace(&graph, &[1000; 4], 8).engine().run();
        // Steady-state pipelining: far below the serial (stages ×
        // microbatches) cost, but at least fill + drain.
        let step = 1000 + DISPATCH_OVERHEAD_CYCLES;
        assert!(balanced.makespan < 4 * 8 * step);
        assert!(balanced.makespan >= (4 + 8 - 1) * step);
    }
}
