//! Test-only helpers shared by the repo-root integration suites.

use npu_arch::ComponentKind as K;
use npu_sim::{BusyTimeline, Resource, ResourceId, ResourceSet, SimObserver};

/// Oracle for `BusyTimeline::from_resources`: records the component-kind
/// timeline live from the engine's hooks, the way the engine recorded it
/// before the per-resource tracks became its one store. Each
/// `resource_busy` on a chip unit adds that unit's kind (an HBM-DMA or
/// ICI unit also adds `Dma`), each `dma_transfer` adds `Hbm` and `Dma`,
/// each `collective_start` adds `Ici` once, and link hooks are ignored.
/// A raw schedule has no SRAM track, so neither does the oracle.
#[derive(Debug)]
pub struct LiveKindRecorder {
    set: ResourceSet,
    timeline: BusyTimeline,
}

impl LiveKindRecorder {
    pub fn for_set(set: &ResourceSet) -> Self {
        LiveKindRecorder { set: *set, timeline: BusyTimeline::default() }
    }

    /// The recorded timeline plus the always-on `Other` track over
    /// `[0, makespan)`, finalized.
    pub fn finish(mut self, makespan: u64) -> BusyTimeline {
        self.timeline.record(K::Other, 0, makespan);
        self.timeline.finalize();
        self.timeline
    }
}

impl SimObserver for LiveKindRecorder {
    fn resource_busy(&mut self, id: ResourceId, _op: usize, start: u64, end: u64) {
        if self.set.link_of(id).is_some() {
            return;
        }
        let kinds: &[K] = match self.set.kind(id) {
            Resource::Sa => &[K::Sa],
            Resource::Vu => &[K::Vu],
            Resource::HbmDma => &[K::Hbm, K::Dma],
            Resource::Ici => &[K::Ici, K::Dma],
        };
        for &kind in kinds {
            self.timeline.record(kind, start, end);
        }
    }

    fn dma_transfer(&mut self, _op: usize, _chip: usize, start: u64, end: u64) {
        self.timeline.record(K::Hbm, start, end);
        self.timeline.record(K::Dma, start, end);
    }

    fn collective_start(&mut self, _op: usize, _links: &[ResourceId], start: u64, end: u64) {
        self.timeline.record(K::Ici, start, end);
    }
}
