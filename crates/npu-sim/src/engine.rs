//! The simulator engine: executes a compiled graph on one chip of a
//! deployment and produces per-operator timings, the per-resource busy
//! tracks on the global clock, and the per-component busy timeline and
//! activity derived from them.
//!
//! Since the event-timeline rewrite the engine no longer walks anchors
//! serially: each operator's phase durations are computed analytically
//! (as before), but issue is dependency-aware — an operator waits on its
//! *producer set* (the compiled graph's DAG edges, remapped through the
//! fusion groups), on the start of its own double-buffered HBM prefetch,
//! and on its execution resource, so the DMA stream of operator `k+1`
//! overlaps the compute of operator `k`, and independent subgraphs (DLRM
//! per-table gathers, the chains of a multi-request batch) overlap freely
//! (see [`crate::timeline`]). Within an operator, compute consumes the
//! stream tile by tile and the operator completes at
//! `max(compute, stream)` — the same intra-operator double-buffering
//! idealization the serial cost model makes.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use npu_arch::{ChipConfig, ComponentKind, PodTopology};
use npu_compiler::{CompiledGraph, CompiledOp, SegmentLifetime, SramAllocation};
use npu_models::{Adjacency, CollectiveKind, ExecutionUnit, OpKind};
use npu_power::energy::ChipUsage;

use crate::activity::ComponentActivity;
use crate::observer::{NullObserver, SimObserver};
use crate::segments::SegmentTimeline;
use crate::timeline::{
    BusyTimeline, EngineScratch, IdleHistogram, OpPhases, PhaseGraph, Resource, ResourceSet,
    ResourceTimeline, RunCounters, ScheduledOp, TimelineEngine,
};
use crate::timing::OpTiming;

/// Fixed per-operator dispatch overhead in cycles (instruction fetch,
/// scalar setup, DMA descriptor programming).
pub const DISPATCH_OVERHEAD_CYCLES: u64 = 100;

/// Effective HBM bandwidth fraction achieved by random-access embedding
/// gathers (row-granularity accesses cannot use the full burst bandwidth).
const GATHER_EFFICIENCY: f64 = 0.25;

/// Per-hop ICI latency in seconds.
const ICI_HOP_LATENCY_S: f64 = 1.0e-6;

/// Message granularity of an all-to-all exchange in bytes.
///
/// DLRM's embedding exchange moves one pooled embedding row per
/// (sample, table, destination) — a few hundred bytes — and these rows
/// cannot be aggregated into large transfers because every destination
/// receives a different, scattered subset. The exchange is therefore
/// dominated by per-message overheads rather than wire bandwidth, which is
/// why the paper observes 98–99% ICI temporal utilization for DLRM
/// (Figure 8) even though the payload is modest.
const ALLTOALL_MESSAGE_BYTES: f64 = 512.0;

/// Per-message processing overhead (descriptor handling, packetization)
/// charged to the ICI controller for all-to-all traffic, in seconds.
const ALLTOALL_PER_MESSAGE_OVERHEAD_S: f64 = 100.0e-9;

/// Tile-level performance simulator for one NPU chip of a deployment.
#[derive(Debug, Clone)]
pub struct Simulator {
    chip: ChipConfig,
    topology: PodTopology,
}

/// Per-operator phase durations plus the timing template the schedule
/// completes.
struct OpProfile {
    phases: OpPhases,
    timing: OpTiming,
}

/// The per-anchor profile of one compiled graph on one chip: everything
/// [`Simulator::prepare`] derives from a single anchor and the chip, and
/// nothing that depends on the anchor's neighbours. That is each anchor's
/// [`OpPhases`], its [`OpTiming`] record and its SA/VU flop addends (the
/// terms of the graph's work totals).
///
/// Two fields of each record are **whole-trace** fields and stay 0 here:
/// [`OpTiming::op_index`] (the anchor's position in the assembled trace)
/// and [`OpTiming::sram_live_bytes`] (the double-buffer allocation places
/// anchors by the parity of that position, and a buffer lives from the
/// anchor before to the anchor after, across any join). The assembly
/// ([`Simulator::assemble`]) fills both.
///
/// Because nothing else crosses an anchor, the profile of a concatenation
/// is the concatenation of its parts' profiles: a serving simulator
/// profiles each batch template once and assembles every trace of those
/// templates from the cached profiles.
#[derive(Debug)]
pub struct AnchorProfile {
    chip: ChipConfig,
    phases: Vec<OpPhases>,
    /// Anchor records with the two whole-trace fields left at 0.
    timings: Arc<[OpTiming]>,
    /// `[SA, VU]` flops each anchor adds to the work totals: an SA
    /// operator's own flops count as SA, its fused vector work as VU.
    flops: Vec<[f64; 2]>,
}

impl Simulator {
    /// Creates a simulator for the given chip deployment.
    #[must_use]
    pub fn new(chip: ChipConfig) -> Self {
        let topology = chip.topology();
        Simulator { chip, topology }
    }

    /// The chip configuration being simulated.
    #[must_use]
    pub fn chip(&self) -> &ChipConfig {
        &self.chip
    }

    /// Runs a compiled graph and returns the per-anchor records and
    /// schedule, the per-resource busy tracks, and the merged
    /// per-component busy timeline.
    /// Every operator is ready at cycle 0 (the single-batch view);
    /// see [`Simulator::run_with_releases`] for arrival-driven serving.
    #[must_use]
    pub fn run(&self, graph: &CompiledGraph) -> SimulationResult {
        self.run_with_releases(graph, &[])
    }

    /// Runs a compiled graph whose anchors carry *release times*: no phase
    /// of anchor `k` (the `k`-th of [`CompiledGraph::anchors`], which runs
    /// its whole fusion group) issues before `releases[k]` cycles — the
    /// dispatch time of the serving batch the anchor belongs to. An empty
    /// slice means every anchor is released at cycle 0 (identical to
    /// [`Simulator::run`]).
    ///
    /// # Panics
    ///
    /// Panics if `releases` is neither empty nor exactly one entry per
    /// anchor (`graph.num_anchors()`).
    #[must_use]
    pub fn run_with_releases(&self, graph: &CompiledGraph, releases: &[u64]) -> SimulationResult {
        self.prepare(graph).run_with_releases(releases)
    }

    /// Profiles, allocates, and builds the timeline engine for a compiled
    /// graph **once**, returning a [`PreparedSimulator`] that can replay
    /// the graph against many release vectors. Per replay only the event
    /// loop, the span-to-clock segment mapping, and the busy-track
    /// finalization run — the per-anchor profiling, SRAM allocation
    /// sweep, the engine's reverse edges, and the shared per-anchor
    /// records are all paid here. This is the one-part case of
    /// [`Simulator::assemble`]: the graph's own [`Simulator::profile`],
    /// whose records become the prepared simulator's in place.
    #[must_use]
    pub fn prepare(&self, graph: &CompiledGraph) -> PreparedSimulator {
        self.assemble(graph, vec![Arc::new(self.profile(graph))])
    }

    /// Profiles every anchor of a compiled graph on this chip: the
    /// release-independent, anchor-local half of [`Simulator::prepare`]
    /// (see [`AnchorProfile`]). The records are collected straight into
    /// their shared slice: the anchor walk has an exact length, so each is
    /// written once, in place.
    #[must_use]
    pub fn profile(&self, graph: &CompiledGraph) -> AnchorProfile {
        let mut phases = Vec::with_capacity(graph.num_anchors());
        let mut flops = Vec::with_capacity(graph.num_anchors());
        let timings = graph
            .anchors()
            .map(|op| {
                flops.push(match op.unit {
                    ExecutionUnit::Sa => [op.op.flops(), op.fused_vu_flops],
                    _ => [0.0, op.op.flops() + op.fused_vu_flops],
                });
                let profile = self.profile_operator(op);
                phases.push(profile.phases);
                profile.timing
            })
            .collect();
        AnchorProfile { chip: self.chip.clone(), phases, timings, flops }
    }

    /// Assembles the prepared simulator of `graph` from the profiles of
    /// the graphs it concatenates, in order — the one preparation path.
    /// The parts supply every anchor-local record; the assembly runs only
    /// the passes that span the whole graph: the SRAM allocation with its
    /// live-byte sweep and segment lifetimes, the two whole-trace record
    /// fields, the work totals (summed in anchor order), and the engine's
    /// reverse edges and DMA buffer ring. The anchor-space producer lists
    /// ([`CompiledGraph::anchor_producers`]) are built once and handed to
    /// the engine as they are.
    ///
    /// A lone part this call holds the only handle to (the one-part
    /// [`Simulator::prepare`]) hands over its phases and records in
    /// place; shared parts (cached batch templates) are copied once, each
    /// record written straight into the shared slice. Either way the
    /// result equals [`Simulator::prepare`] of `graph`, bit for bit, when
    /// the parts are the profiles of the graphs `graph` concatenates.
    ///
    /// # Panics
    ///
    /// Panics, naming the mismatch, if the parts do not cover exactly the
    /// graph's anchors or were profiled for another chip deployment.
    #[must_use]
    pub fn assemble(
        &self,
        graph: &CompiledGraph,
        mut parts: Vec<Arc<AnchorProfile>>,
    ) -> PreparedSimulator {
        let n = graph.num_anchors();
        let profiled: usize = parts.iter().map(|part| part.phases.len()).sum();
        assert_eq!(
            profiled,
            n,
            "the profiles cover {profiled} anchors but graph '{}' has {n}",
            graph.name()
        );
        for part in &parts {
            assert!(
                part.chip == self.chip,
                "a profile of {} chip(s) of {:?} assembled on {} chip(s) of {:?}",
                part.chip.num_chips(),
                part.chip.spec().generation,
                self.chip.num_chips(),
                self.chip.spec().generation
            );
        }
        let spec = self.chip.spec();
        let allocation = SramAllocation::allocate(graph, spec.sram_geometry());
        // One sweep over the buffer list instead of a per-anchor
        // `live_bytes_at` point query (which is O(buffers) per anchor and
        // dominated the whole simulation on big graphs).
        let live_profile = allocation.live_bytes_profile();
        let (mut sa_flops, mut vu_flops) = (0.0, 0.0);
        for [sa, vu] in parts.iter().flat_map(|part| part.flops.iter()) {
            sa_flops += sa;
            vu_flops += vu;
        }
        // The whole-trace fields of each record, and the work sums over
        // the records in anchor order, in the one pass that writes them.
        let (mut sa_weighted_spatial, mut hbm_bytes, mut ici_bytes) = (0.0f64, 0.0f64, 0.0f64);
        let mut finish_record = |anchor_index: usize, timing: &mut OpTiming| {
            timing.op_index = anchor_index;
            timing.sram_live_bytes = live_profile[anchor_index];
            sa_weighted_spatial += timing.sa_spatial_utilization * timing.sa_active_cycles as f64;
            hbm_bytes += timing.hbm_bytes as f64;
            ici_bytes += timing.ici_bytes as f64;
        };
        let (phases, timings) = if parts.len() == 1 && Arc::strong_count(&parts[0]) == 1 {
            let lone = parts.pop().and_then(Arc::into_inner).expect("the sole handle");
            let mut timings = lone.timings;
            for (anchor_index, timing) in Arc::make_mut(&mut timings).iter_mut().enumerate() {
                finish_record(anchor_index, timing);
            }
            (lone.phases, timings)
        } else {
            let mut phases = Vec::with_capacity(n);
            for part in &parts {
                phases.extend_from_slice(&part.phases);
            }
            let mut records = parts.iter().flat_map(|part| part.timings.iter());
            // A mapped range has an exact length, so the slice is
            // allocated once and each record written once, in place.
            let timings = (0..n)
                .map(|anchor_index| {
                    let mut timing = records.next().expect("the parts cover every anchor").clone();
                    finish_record(anchor_index, &mut timing);
                    timing
                })
                .collect();
            (phases, timings)
        };
        // Over-capacity live bytes are an allocator bug, not a value
        // downstream consumers may quietly clamp; see
        // `validation::SramCapacityReport` for the release-mode audit.
        debug_assert!(
            live_profile.iter().all(|&live| live <= spec.sram_bytes()),
            "the allocator reports more live bytes than the {}-byte scratchpad holds",
            spec.sram_bytes()
        );
        let work = ChipUsage {
            busy_seconds: 0.0,
            sa_flops,
            vu_flops,
            hbm_bytes,
            ici_bytes,
            sram_bytes: 3.0 * hbm_bytes,
            dma_bytes: hbm_bytes + ici_bytes,
        };
        PreparedSimulator {
            chip: self.chip.clone(),
            engine: TimelineEngine::new(PhaseGraph::new(phases, graph.anchor_producers())),
            timings,
            sa_weighted_spatial,
            work,
            lifetimes: allocation.segment_lifetimes(),
            segment_bytes: allocation.geometry().segment_bytes(),
            num_segments: allocation.geometry().num_segments(),
        }
    }

    /// Computes the phase durations of a single anchor operator.
    fn profile_operator(&self, op: &CompiledOp) -> OpProfile {
        let spec = self.chip.spec();
        let hbm_bpc = spec.hbm_bytes_per_cycle();
        let hbm_latency_cycles = spec.seconds_to_cycles(spec.hbm_kind.access_latency_ns() * 1e-9);
        let vu_total_per_cycle = (spec.vu_elems_per_cycle() * spec.num_vu) as f64;

        let mut sa_active = 0u64;
        let mut sa_spatial = 0.0f64;
        let mut fused_vu = 0u64;

        // Streamed HBM prefetch of the operator's operands: transfer time
        // plus the first access latency. The main phase consumes the
        // stream tile by tile as it lands (intra-operator double
        // buffering), so it waits for no lead portion — the same
        // idealization the serial cost model's `max(compute, dma)` makes —
        // and the operator completes only when both the stream and the
        // compute are done. This keeps the overlapped makespan provably
        // at or below the serial per-op sum.
        let (hbm_cycles, hbm_lead) = if op.tile.hbm_bytes > 0 {
            let transfer = (op.tile.hbm_bytes as f64 / hbm_bpc).ceil() as u64;
            (transfer + hbm_latency_cycles, 0)
        } else {
            (0, 0)
        };

        let (unit, main_cycles, dma_cycles, dma_lead) = match op.unit {
            ExecutionUnit::Sa => {
                let (m, k, n) = op.op.matmul_dims().unwrap_or((1, 1, 1));
                let batch = op.op.matmul_batch().max(1);
                let w = spec.sa_width as u64;
                let k_tiles = k.div_ceil(w).max(1);
                let n_tiles = n.div_ceil(w).max(1);
                let passes = batch * k_tiles * n_tiles;
                let sas_used = (spec.num_sa as u64).min(passes).max(1);
                let passes_per_sa = passes.div_ceil(sas_used);
                // Weight-stationary dataflow: each pass shifts in a W-deep
                // weight panel (overlapped with the previous pass's drain
                // except for the very first) and streams m rows through.
                let sa_cycles = passes_per_sa * (m + w) + w;
                sa_active = sa_cycles;
                // Spatial utilization: achieved MACs over peak MACs of the
                // arrays that were switched on while active.
                let peak_macs = sa_active as f64 * sas_used as f64 * (w * w) as f64;
                sa_spatial = ((op.op.flops() / 2.0) / peak_macs).min(1.0);
                // Fused vector post-processing overlaps with the SA drain.
                fused_vu = (op.fused_vu_elements as f64 / vu_total_per_cycle).ceil() as u64;
                (Resource::Sa, sa_cycles, hbm_cycles, hbm_lead)
            }
            ExecutionUnit::Vu => {
                let flops = op.op.flops() + op.fused_vu_flops;
                let vu_cycles = ((flops / vu_total_per_cycle).ceil() as u64).max(1);
                (Resource::Vu, vu_cycles, hbm_cycles, hbm_lead)
            }
            ExecutionUnit::Hbm => {
                // Random-access gathers achieve a fraction of the peak
                // bandwidth; the gather *is* the transfer, so there is no
                // separate prefetch phase to overlap.
                let bytes = op.tile.hbm_bytes as f64;
                let cycles =
                    (bytes / (hbm_bpc * GATHER_EFFICIENCY)).ceil() as u64 + hbm_latency_cycles;
                (Resource::HbmDma, cycles, 0, 0)
            }
            ExecutionUnit::Ici => {
                let bytes = op.op.ici_bytes() as f64;
                let seconds = match op.op.kind {
                    OpKind::Collective { kind, .. } => match kind {
                        CollectiveKind::AllReduce => self.topology.allreduce_seconds(
                            bytes,
                            spec.ici_link_gbps,
                            ICI_HOP_LATENCY_S,
                        ),
                        CollectiveKind::ReduceScatter | CollectiveKind::AllGather => self
                            .topology
                            .reduce_scatter_seconds(bytes, spec.ici_link_gbps, ICI_HOP_LATENCY_S),
                        CollectiveKind::AllToAll => {
                            let wire = self.topology.alltoall_seconds(
                                bytes,
                                spec.ici_link_gbps,
                                ICI_HOP_LATENCY_S,
                            );
                            let messages = bytes / ALLTOALL_MESSAGE_BYTES;
                            wire.max(messages * ALLTOALL_PER_MESSAGE_OVERHEAD_S)
                        }
                        CollectiveKind::PointToPoint => {
                            self.topology.p2p_seconds(bytes, spec.ici_link_gbps, ICI_HOP_LATENCY_S)
                        }
                    },
                    _ => 0.0,
                };
                (Resource::Ici, spec.seconds_to_cycles(seconds), 0, 0)
            }
        };

        // The serial-engine cost of the operator: intra-operator overlap of
        // compute, fused post-processing, and DMA, but no overlap across
        // operators. Kept for the overlap accounting (`serial_cycles`).
        let serial = main_cycles.max(dma_cycles).max(fused_vu) + DISPATCH_OVERHEAD_CYCLES;

        let phases = OpPhases {
            unit: unit.into(),
            main_cycles,
            dma_cycles,
            dma_lead_cycles: dma_lead,
            fused_vu_cycles: fused_vu,
            dispatch_cycles: DISPATCH_OVERHEAD_CYCLES,
            sa_active_cycles: sa_active,
            collective: None,
        };
        let timing = OpTiming {
            op_index: 0,
            name: op.op.name.clone(),
            unit: op.unit,
            serial_duration_cycles: serial,
            sa_active_cycles: sa_active.min(serial),
            sa_spatial_utilization: sa_spatial,
            hbm_bytes: op.tile.hbm_bytes,
            ici_bytes: op.op.ici_bytes(),
            flops: op.op.flops() + op.fused_vu_flops,
            sram_live_bytes: 0,
            sram_demand_bytes: op.tile.sram_demand_bytes,
        };
        OpProfile { phases, timing }
    }
}

/// A compiled graph profiled, allocated, and dependency-flattened for
/// repeated simulation — see [`Simulator::prepare`].
///
/// All release-independent work lives here: per-anchor phase durations,
/// the SRAM allocation's live-bytes profile and segment lifetimes, the
/// timeline engine's topology, and the per-anchor records every result
/// shares — the [`OpTiming`]s, the anchor-space producer [`Adjacency`]
/// (the engine's [`PhaseGraph::producers`]) and the SA spatial weight —
/// built once, the first two behind `Arc`s. Every release vector it
/// takes holds one entry per anchor (empty = all at cycle 0). Replaying
/// against a new one ([`PreparedSimulator::run_with_scratch`]) pays only
/// the event loop, the clock mapping and the busy-track finalization,
/// and the result it returns holds new allocations only for what the
/// release vector changes: the schedule, the resource tracks with their
/// derived component timeline, and the segment intervals. That is what
/// makes a serving sweep over repeated batch shapes cheap.
#[derive(Debug)]
pub struct PreparedSimulator {
    chip: ChipConfig,
    engine: TimelineEngine,
    /// Per-anchor records, shared with every result (see
    /// [`SimulationResult::timings`]).
    timings: Arc<[OpTiming]>,
    /// Σ spatial utilization × SA-active cycles, summed in anchor order —
    /// the activity's SA spatial weight, which no release changes.
    sa_weighted_spatial: f64,
    /// The graph's work totals with zero busy time, shared with every
    /// result (see [`SimulationResult::chip_usage`]).
    work: ChipUsage,
    lifetimes: Vec<SegmentLifetime>,
    segment_bytes: u64,
    num_segments: usize,
}

impl PreparedSimulator {
    /// The chip configuration being simulated.
    #[must_use]
    pub fn chip(&self) -> &ChipConfig {
        &self.chip
    }

    /// The engine's resource set — what an observer recording a replay
    /// (e.g. a [`crate::trace::TraceRecorder`]) must be sized for.
    #[must_use]
    pub fn resources(&self) -> ResourceSet {
        self.engine.resources()
    }

    /// Runs the static schedule analyzer on the prepared graph: the
    /// phase-level DAG checks, the `[lower, upper]` makespan window under
    /// the per-anchor `releases`, the containment verdict when a measured
    /// makespan is supplied, and the static SRAM capacity audit against
    /// this chip's scratchpad — all without firing a single event. The
    /// serving layer and the evaluation binaries call this before (or
    /// instead of) [`PreparedSimulator::run_with_releases`]. A release
    /// vector that is neither empty nor one entry per anchor is denied
    /// (`time.release-length-mismatch`, with no window), not a panic.
    #[must_use]
    pub fn analyze(
        &self,
        releases: &[u64],
        measured_makespan: Option<u64>,
    ) -> crate::analysis::AnalysisReport {
        let mut report =
            crate::analysis::analyze_phases(self.engine.phases(), releases, measured_makespan);
        let capacity = self.chip.spec().sram_bytes();
        let peak = self.timings.iter().map(|t| t.sram_live_bytes).max().unwrap_or(0);
        let audit = crate::analysis::SramCapacityReport::from_parts(
            capacity,
            self.timings.iter().map(|t| t.sram_live_bytes),
            peak,
        );
        report.extend(audit.diagnostics());
        report
    }

    /// Replays the prepared graph under a per-anchor release vector with
    /// one-shot scratch buffers. Semantics match
    /// [`Simulator::run_with_releases`] on the same graph, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `releases` is neither empty nor exactly one entry per
    /// anchor.
    #[must_use]
    pub fn run_with_releases(&self, releases: &[u64]) -> SimulationResult {
        self.run_with_scratch(releases, &mut EngineScratch::default())
    }

    /// Replays the prepared graph under a per-anchor release vector,
    /// reusing the caller's [`EngineScratch`] across runs so the event
    /// loop allocates nothing per replay.
    ///
    /// # Panics
    ///
    /// Panics if `releases` is neither empty nor exactly one entry per
    /// anchor.
    #[must_use]
    pub fn run_with_scratch(
        &self,
        releases: &[u64],
        scratch: &mut EngineScratch,
    ) -> SimulationResult {
        self.run_with_scratch_observed(releases, scratch, &mut NullObserver)
    }

    /// Replays the prepared graph like
    /// [`PreparedSimulator::run_with_scratch`], reporting every engine
    /// event to `obs` (see [`crate::observer::SimObserver`]). The
    /// observer never influences the schedule: observed and unobserved
    /// replays are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `releases` is neither empty nor exactly one entry per
    /// anchor.
    #[must_use]
    pub fn run_with_scratch_observed<O: SimObserver>(
        &self,
        releases: &[u64],
        scratch: &mut EngineScratch,
        obs: &mut O,
    ) -> SimulationResult {
        let schedule = self.engine.run_with_scratch_observed(releases, scratch, obs);
        // Per-segment SRAM liveness on the global clock: the allocator's
        // anchor-granularity lifetimes mapped through the scheduled spans.
        // The SRAM's busy track is the union of live segment intervals —
        // replacing the engine's former blanket `[0, makespan)` record,
        // which hid every dead-segment interval from the gating model.
        let segments = SegmentTimeline::from_lifetimes(
            &self.lifetimes,
            self.segment_bytes,
            self.num_segments,
            &schedule.ops,
            schedule.makespan,
            releases,
        );
        let mut timeline = schedule.timeline;
        timeline.insert_finalized(ComponentKind::Sram, segments.live_union());
        SimulationResult {
            chip: self.chip.clone(),
            timings: Arc::clone(&self.timings),
            anchor_producers: Arc::clone(self.engine.phases().producers()),
            schedule: schedule.ops,
            releases: releases.to_vec(),
            sa_weighted_spatial: self.sa_weighted_spatial,
            timeline,
            resource_timeline: schedule.resource_timeline,
            segments,
            makespan_cycles: schedule.makespan,
            work: self.work,
            counters: schedule.counters,
        }
    }
}

/// Result of simulating one compiled graph on one chip.
///
/// Per-anchor data comes in two halves indexed alike: the
/// release-independent [`SimulationResult::timings`], shared with the
/// [`PreparedSimulator`] that produced the result and with every other
/// replay of it, and the [`SimulationResult::schedule`] this run
/// produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationResult {
    chip: ChipConfig,
    /// Shared per-anchor records (never copied per replay).
    timings: Arc<[OpTiming]>,
    /// `anchor_producers.of(k)`: anchor indices operator `k` waited on —
    /// the engine's producer store, shared with every other replay.
    anchor_producers: Arc<Adjacency>,
    /// `schedule[k]`: when anchor `k`'s phases ran on the global clock.
    schedule: Vec<ScheduledOp>,
    /// `releases[k]`: earliest cycle anchor `k` was allowed to issue (empty
    /// for a cycle-0 batch run).
    releases: Vec<u64>,
    /// The activity's SA spatial weight (see `PreparedSimulator`).
    sa_weighted_spatial: f64,
    timeline: BusyTimeline,
    /// The engine's per-resource tracks, moved out of the schedule.
    resource_timeline: ResourceTimeline,
    segments: SegmentTimeline,
    makespan_cycles: u64,
    /// Work totals of the prepared graph, busy time left at zero.
    work: ChipUsage,
    /// Event-loop counters of the run that produced this result.
    #[serde(default)]
    counters: RunCounters,
}

impl SimulationResult {
    /// The chip configuration that was simulated.
    #[must_use]
    pub fn chip(&self) -> &ChipConfig {
        &self.chip
    }

    /// Per-anchor records in anchor order: unit, work, serial cost and
    /// SRAM bytes — everything about an operator that no release vector
    /// changes. Every replay of one [`PreparedSimulator`] returns the same
    /// shared slice; when each operator ran is in
    /// [`SimulationResult::schedule`] at the same index.
    #[must_use]
    pub fn timings(&self) -> &[OpTiming] {
        &self.timings
    }

    /// Per-anchor phase times of this run in anchor order, indexed like
    /// [`SimulationResult::timings`]: [`ScheduledOp::span_start`] is the
    /// first cycle any phase (prefetch included) occupies hardware,
    /// `main_start` the compute dispatch, [`ScheduledOp::span_cycles`]
    /// the occupancy span and `finish` its end.
    #[must_use]
    pub fn schedule(&self) -> &[ScheduledOp] {
        &self.schedule
    }

    /// The last-issued timing whose operator name starts with `prefix`,
    /// or `None` if no operator matches — a gather-only DLRM slice has no
    /// `bottom_mlp` stack, for example, and callers must handle that
    /// rather than indexing on faith.
    #[must_use]
    pub fn last_timing_with_prefix(&self, prefix: &str) -> Option<&OpTiming> {
        self.timings.iter().rfind(|t| t.name.starts_with(prefix))
    }

    /// Anchor indices whose completion operator `index` waited on — the
    /// dependency DAG the schedule honoured (empty for sources).
    #[must_use]
    pub fn producers_of(&self, index: usize) -> &[usize] {
        self.anchor_producers.of(index)
    }

    /// Release cycle the schedule honoured for anchor `index` (0 unless
    /// the run came from [`Simulator::run_with_releases`]).
    #[must_use]
    pub fn release_of(&self, index: usize) -> u64 {
        self.releases.get(index).copied().unwrap_or(0)
    }

    /// Aggregated per-component activity, derived from
    /// [`SimulationResult::busy_timeline`] on each call.
    #[must_use]
    pub fn activity(&self) -> ComponentActivity {
        ComponentActivity::from_timeline(
            &self.timeline,
            self.makespan_cycles,
            self.sa_weighted_spatial,
        )
    }

    /// Merged per-component busy intervals on the global clock.
    #[must_use]
    pub fn busy_timeline(&self) -> &BusyTimeline {
        &self.timeline
    }

    /// The engine's finalized busy tracks per unit of the chip, which
    /// [`SimulationResult::busy_timeline`] is derived from (plus the
    /// SRAM's live segments) and trace exports are checked against.
    #[must_use]
    pub fn resource_timeline(&self) -> &ResourceTimeline {
        &self.resource_timeline
    }

    /// Event-loop counters of the run that produced this result: events
    /// popped, heap peak, release-clamp stalls, collective occupancy.
    #[must_use]
    pub fn counters(&self) -> &RunCounters {
        &self.counters
    }

    /// Per-segment SRAM live intervals on the global clock — the input to
    /// segment-granularity SRAM power gating (§4.3).
    #[must_use]
    pub fn segment_timeline(&self) -> &SegmentTimeline {
        &self.segments
    }

    /// Chip-level histogram of idle-interval lengths per component — the
    /// distribution interval-accurate gating decisions are made against.
    #[must_use]
    pub fn idle_histogram(&self) -> IdleHistogram {
        IdleHistogram::from_timeline(&self.timeline, self.makespan_cycles)
    }

    /// Total execution length in cycles (the timeline makespan).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.makespan_cycles
    }

    /// What the execution would cost with the old serial engine (each
    /// operator in isolation, no cross-operator overlap). The makespan is
    /// at most this; the difference is the hidden DMA/dispatch time.
    #[must_use]
    pub fn serial_cycles(&self) -> u64 {
        self.timings.iter().map(|t| t.serial_duration_cycles).sum()
    }

    /// Total execution time in seconds.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.chip.spec().cycles_to_seconds(self.total_cycles())
    }

    /// The activity counters the dynamic-energy model prices: this run's
    /// busy seconds plus the graph's work totals, which no release vector
    /// changes. [`Simulator::prepare`] sums those once, in anchor order:
    /// SA and VU flops split by execution unit (an SA operator's fused
    /// vector work counts as VU flops), HBM and ICI bytes, and the SRAM
    /// (3× HBM) and DMA (HBM + ICI) traffic derived from them.
    #[must_use]
    pub fn chip_usage(&self) -> ChipUsage {
        ChipUsage { busy_seconds: self.total_seconds(), ..self.work }
    }

    /// Total FLOPs executed.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.timings.iter().map(|t| t.flops).sum()
    }

    /// Achieved FLOP/s of the chip over the whole execution.
    #[must_use]
    pub fn achieved_flops_per_second(&self) -> f64 {
        let secs = self.total_seconds();
        if secs == 0.0 {
            0.0
        } else {
            self.total_flops() / secs
        }
    }

    /// Per-operator `(SRAM demand in MiB, span in cycles)` pairs — the
    /// input to the Figure 7 CDF, which weights demand by execution time.
    #[must_use]
    pub fn sram_demand_profile(&self) -> Vec<(f64, u64)> {
        self.timings
            .iter()
            .zip(&self.schedule)
            .map(|(t, s)| (t.sram_demand_bytes as f64 / (1024.0 * 1024.0), s.span_cycles()))
            .collect()
    }

    /// Execution-time-weighted percentile of SRAM demand in MiB (e.g. the
    /// 50th or 99th percentile of Figure 7).
    ///
    /// # Panics
    ///
    /// Never: demands are converted from byte counts, so the sort keys
    /// are always finite.
    #[must_use]
    pub fn sram_demand_percentile_mib(&self, percentile: f64) -> f64 {
        let mut profile = self.sram_demand_profile();
        if profile.is_empty() {
            return 0.0;
        }
        profile.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("demand is finite"));
        let total: u64 = profile.iter().map(|p| p.1).sum();
        if total == 0 {
            // No execution time to weight by: every demand has zero weight,
            // so every percentile of the CDF is zero.
            return 0.0;
        }
        let target = (percentile.clamp(0.0, 100.0) / 100.0 * total as f64).ceil() as u64;
        let mut acc = 0u64;
        for (demand, cycles) in profile {
            acc += cycles;
            if acc >= target {
                return demand;
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_arch::{ComponentKind, NpuGeneration, NpuSpec, ParallelismConfig};
    use npu_compiler::{CompiledGraph, Compiler};
    use npu_models::{DiffusionModel, DlrmSize, EvalConfig, LlamaModel, LlmPhase, Workload};

    fn simulate(workload: Workload, chips: usize) -> SimulationResult {
        let chip = ChipConfig::new(NpuGeneration::D, chips);
        let parallelism = workload
            .default_parallelism(chip.spec(), chips)
            .unwrap_or(ParallelismConfig::new(chips, 1, 1));
        let graph = workload.build_graph(&parallelism);
        let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
        Simulator::new(chip).run(&compiled)
    }

    #[test]
    fn prefill_is_sa_bound_decode_is_hbm_bound() {
        let prefill = simulate(Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill), 1);
        let decode = simulate(Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode), 1);
        assert!(
            prefill.activity().temporal_utilization(ComponentKind::Sa) > 0.6,
            "prefill SA util {}",
            prefill.activity().temporal_utilization(ComponentKind::Sa)
        );
        assert!(
            decode.activity().temporal_utilization(ComponentKind::Hbm) > 0.8,
            "decode HBM util {}",
            decode.activity().temporal_utilization(ComponentKind::Hbm)
        );
        assert!(
            decode.activity().temporal_utilization(ComponentKind::Sa) < 0.3,
            "decode SA util {}",
            decode.activity().temporal_utilization(ComponentKind::Sa)
        );
    }

    #[test]
    fn prefill_sa_spatial_utilization_is_high() {
        let prefill = simulate(Workload::llm(LlamaModel::Llama3_70B, LlmPhase::Prefill), 8);
        let spatial = prefill.activity().sa_spatial_utilization();
        assert!(spatial > 0.7, "prefill spatial util {spatial}");
    }

    #[test]
    fn dit_spatial_utilization_is_limited_by_head_size() {
        let mut wl = Workload::diffusion(DiffusionModel::DitXl);
        if let Workload::Diffusion(ref mut cfg) = wl {
            cfg.steps = 2;
        }
        let result = simulate(wl, 1);
        let spatial = result.activity().sa_spatial_utilization();
        // head_dim 72 over a 128-wide SA bounds the attention matmuls to
        // ~56% PE occupancy, pulling the average below a fully utilized SA.
        assert!(spatial < 0.85, "DiT spatial util {spatial}");
        assert!(spatial > 0.1);
        let prefill = simulate(Workload::llm(LlamaModel::Llama3_70B, LlmPhase::Prefill), 8);
        assert!(
            spatial < prefill.activity().sa_spatial_utilization(),
            "DiT must utilize the SA worse than large-sequence LLM prefill"
        );
    }

    #[test]
    fn dlrm_is_ici_heavy_and_sa_idle() {
        let result = simulate(Workload::dlrm(DlrmSize::Medium), 8);
        let sa_util = result.activity().temporal_utilization(ComponentKind::Sa);
        let ici_util = result.activity().temporal_utilization(ComponentKind::Ici);
        assert!(sa_util < 0.1, "DLRM SA util {sa_util}");
        assert!(ici_util > 0.3, "DLRM ICI util {ici_util}");
    }

    #[test]
    fn prefill_ici_is_mostly_idle_with_tp() {
        let result = simulate(Workload::llm(LlamaModel::Llama3_70B, LlmPhase::Prefill), 8);
        let ici_util = result.activity().temporal_utilization(ComponentKind::Ici);
        assert!(ici_util < 0.5, "prefill ICI util {ici_util}");
        assert!(ici_util > 0.0, "tensor parallel prefill does use the ICI");
    }

    #[test]
    fn faster_chip_finishes_sooner() {
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill);
        let graph = wl.build_graph(&ParallelismConfig::single());
        let chip_a = ChipConfig::new(NpuGeneration::A, 1);
        let chip_d = ChipConfig::new(NpuGeneration::D, 1);
        let on_a = Simulator::new(chip_a.clone())
            .run(&Compiler::new(chip_a.spec().clone()).compile(&graph));
        let on_d = Simulator::new(chip_d.clone())
            .run(&Compiler::new(chip_d.spec().clone()).compile(&graph));
        assert!(
            on_d.total_seconds() < on_a.total_seconds() / 3.0,
            "NPU-D ({}) should be much faster than NPU-A ({})",
            on_d.total_seconds(),
            on_a.total_seconds()
        );
    }

    #[test]
    fn achieved_flops_never_exceed_peak() {
        for wl in [
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill),
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode),
            Workload::dlrm(DlrmSize::Small),
        ] {
            let result = simulate(wl, 8);
            let spec = NpuSpec::generation(NpuGeneration::D);
            assert!(
                result.achieved_flops_per_second() <= spec.peak_flops() * 1.01,
                "{}: achieved {} > peak {}",
                wl.label(),
                result.achieved_flops_per_second(),
                spec.peak_flops()
            );
        }
    }

    #[test]
    fn sram_demand_percentiles_are_monotonic() {
        let result = simulate(Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Prefill), 1);
        let p50 = result.sram_demand_percentile_mib(50.0);
        let p95 = result.sram_demand_percentile_mib(95.0);
        assert!(p95 >= p50);
        assert!(p50 > 0.0);
    }

    #[test]
    fn decode_sram_demand_is_small() {
        let result = simulate(Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode), 1);
        assert!(
            result.sram_demand_percentile_mib(95.0) < 128.0,
            "decode demand {} MiB",
            result.sram_demand_percentile_mib(95.0)
        );
    }

    #[test]
    fn timings_cover_all_anchors() {
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode);
        let chip = ChipConfig::new(NpuGeneration::D, 1);
        let graph = wl.build_graph(&ParallelismConfig::single());
        let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
        let result = Simulator::new(chip).run(&compiled);
        assert_eq!(result.timings().len(), compiled.num_anchors());
        assert_eq!(result.schedule().len(), compiled.num_anchors());
        for (t, s) in result.timings().iter().zip(result.schedule()) {
            assert!(s.span_cycles() >= DISPATCH_OVERHEAD_CYCLES);
            assert!(t.sa_active_cycles <= s.span_cycles());
            assert!(s.main_start >= s.span_start());
        }
    }

    // ---- Timeline-engine invariants (event-driven issue, overlap) ----

    /// Every Table-4 workload, at a modest chip count so the net stays
    /// fast, with its default batch. Simulated once and shared by all the
    /// invariant tests below.
    fn table4_simulations() -> &'static [(String, SimulationResult)] {
        static SIMS: std::sync::OnceLock<Vec<(String, SimulationResult)>> =
            std::sync::OnceLock::new();
        SIMS.get_or_init(|| {
            EvalConfig::all()
                .into_iter()
                .map(|config| {
                    let chips = config.num_chips.min(8);
                    (config.workload.label(), simulate(config.workload, chips))
                })
                .collect()
        })
    }

    #[test]
    fn overlap_never_starts_an_op_before_its_producer_finishes() {
        for (label, result) in table4_simulations() {
            let timings = result.timings();
            let schedule = result.schedule();
            for (index, scheduled) in schedule.iter().enumerate() {
                for &p in result.producers_of(index) {
                    assert!(
                        scheduled.main_start >= schedule[p].finish,
                        "{label}: {} computes at {} before producer {} finishes at {}",
                        timings[index].name,
                        scheduled.main_start,
                        timings[p].name,
                        schedule[p].finish
                    );
                }
            }
        }
    }

    #[test]
    fn dependency_edges_survive_into_the_schedule() {
        // The compiled DAG must stay connected: only true sources (first
        // op of a chain, embedding gathers, independent request heads) may
        // have an empty producer set. For every Table-4 workload the
        // sources are a small minority — a remapping regression that
        // silently drops edges turns most operators into sources and
        // over-overlaps the schedule, so bound the source fraction, not
        // just its existence.
        for (label, result) in table4_simulations() {
            let n = result.timings().len();
            let sources = (0..n).filter(|&k| result.producers_of(k).is_empty()).count();
            assert!(sources >= 1, "{label}: no sources");
            assert!(
                sources * 2 <= n.max(2),
                "{label}: {sources}/{n} operators are sources — dependency edges were lost"
            );
            // Every non-source producer index must reference an earlier op.
            for k in 0..n {
                for &p in result.producers_of(k) {
                    assert!(p < k, "{label}: op {k} lists non-preceding producer {p}");
                }
            }
        }
    }

    #[test]
    fn busy_intervals_are_disjoint_sorted_and_bounded() {
        for (label, result) in table4_simulations() {
            let total = result.total_cycles();
            for kind in ComponentKind::ALL {
                let intervals = result.busy_timeline().intervals(kind);
                for iv in intervals {
                    assert!(iv.start < iv.end, "{label}/{kind:?}: empty interval");
                    assert!(iv.end <= total, "{label}/{kind:?}: interval past makespan");
                }
                for pair in intervals.windows(2) {
                    assert!(
                        pair[0].end < pair[1].start,
                        "{label}/{kind:?}: intervals overlap or abut: {pair:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn overlapped_total_never_exceeds_the_serial_sum() {
        let mut any_strictly_better = false;
        for (label, result) in table4_simulations() {
            assert!(
                result.total_cycles() <= result.serial_cycles(),
                "{label}: makespan {} exceeds serial sum {}",
                result.total_cycles(),
                result.serial_cycles()
            );
            if result.total_cycles() < result.serial_cycles() {
                any_strictly_better = true;
            }
        }
        assert!(any_strictly_better, "no workload shows any HBM/compute overlap");
    }

    #[test]
    fn decode_overlap_hides_measurable_time() {
        // LLM decode streams weights continuously: the DMA prefetch of
        // operator k+1 overlaps the compute of operator k, so the makespan
        // must be strictly below the serial per-op sum.
        let result = simulate(Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode), 1);
        assert!(
            result.total_cycles() < result.serial_cycles(),
            "decode shows no overlap: makespan {} vs serial {}",
            result.total_cycles(),
            result.serial_cycles()
        );
    }

    #[test]
    fn dlrm_gathers_overlap_the_bottom_mlp() {
        // The DLRM DAG's per-table gathers are sources: the first gather
        // must stream while (not after) the dense branch computes.
        let wl = Workload::dlrm(DlrmSize::Medium);
        let chip = ChipConfig::new(NpuGeneration::D, 8);
        let parallelism = ParallelismConfig::new(8, 1, 1);
        let graph = wl.build_graph(&parallelism);
        let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
        let result = Simulator::new(chip).run(&compiled);
        let schedule = result.schedule();
        let first_gather = result
            .timings()
            .iter()
            .find(|t| t.name.ends_with(".lookup"))
            .expect("DLRM has gather anchors");
        let gather_start = schedule[first_gather.op_index].main_start;
        assert_eq!(gather_start, 0, "gathers are DAG sources");
        let mlp_tail = result
            .last_timing_with_prefix("bottom_mlp")
            .expect("DLRM lowers a bottom_mlp stack; a gather-only graph would return None");
        assert!(
            gather_start < schedule[mlp_tail.op_index].finish,
            "gathers serialized behind the bottom MLP"
        );
    }

    #[test]
    fn multi_request_batch_overlaps_independent_chains() {
        // Request-level serving: N independent DLRM requests merged at a
        // final collective. One request's ICI exchange must overlap
        // another's embedding gathers, so the DAG lowering has to beat a
        // full serialization of the same operators (the pre-DAG engine's
        // view) by a wide margin.
        let wl = Workload::dlrm(DlrmSize::Medium).with_batch(1024);
        let chip = ChipConfig::new(NpuGeneration::D, 8);
        let parallelism = ParallelismConfig::new(8, 1, 1);
        let compiler = Compiler::new(chip.spec().clone());
        let request_graph = wl.build_request_graph(&parallelism, 4);
        let batched = Simulator::new(chip.clone()).run(&compiler.compile(&request_graph));
        assert!(
            batched.total_cycles() <= batched.serial_cycles(),
            "makespan {} exceeds the serial sum {}",
            batched.total_cycles(),
            batched.serial_cycles()
        );
        // The same operators issued as one linear chain (every op depends
        // on its predecessor — what the engine modelled before producer
        // sets existed).
        let sub = wl.with_batch(1024 / 4).build_graph(&parallelism);
        let mut chained_graph = npu_models::OperatorGraph::new("chained");
        for _ in 0..4 {
            chained_graph.extend(sub.iter().cloned());
        }
        let chained = Simulator::new(chip).run(&compiler.compile(&chained_graph));
        assert!(
            batched.total_cycles() < chained.total_cycles(),
            "request-level DAG ({}) should beat the serialized chain ({}); DLRM is ICI-bound so \
             the margin is modest, but it must be strictly positive",
            batched.total_cycles(),
            chained.total_cycles()
        );
        // Structural witness of the overlap: a later request's gather
        // streams while the first request's all-to-all is still on the
        // wire — impossible in the chained lowering.
        let timings = batched.timings();
        let schedule = batched.schedule();
        let first_a2a = timings
            .iter()
            .find(|t| &*t.name == "embedding_alltoall")
            .expect("distributed DLRM has an all-to-all");
        let a2a_finish = schedule[first_a2a.op_index].finish;
        assert!(
            timings.iter().zip(schedule).any(|(t, s)| t.op_index > first_a2a.op_index
                && t.name.ends_with(".lookup")
                && s.main_start < a2a_finish),
            "no later gather overlapped the first request's all-to-all"
        );
    }

    #[test]
    fn timing_prefix_lookup_is_none_on_gather_only_graphs() {
        // Regression: the DLRM overlap test used to `.unwrap()` the
        // bottom_mlp lookup, which panics on any DLRM-shaped graph that
        // lowers only embedding gathers (e.g. a sparse-side slice).
        use npu_models::{DataType, OpKind, Operator, OperatorGraph};
        let mut graph = OperatorGraph::new("gather-only");
        for t in 0..4 {
            graph.push_source(Operator::new(
                format!("table.{t}.lookup"),
                OpKind::EmbeddingLookup { lookups: 1024, dim: 128, table_bytes: 1 << 20 },
                DataType::Bf16,
            ));
        }
        let chip = ChipConfig::new(NpuGeneration::D, 1);
        let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
        let result = Simulator::new(chip).run(&compiled);
        assert!(result.last_timing_with_prefix("bottom_mlp").is_none());
        assert!(result.last_timing_with_prefix("table.").is_some());
        // And on a full DLRM graph the lookup finds the *last* MLP op.
        let full = simulate(Workload::dlrm(DlrmSize::Small), 1);
        let tail = full.last_timing_with_prefix("bottom_mlp").expect("full DLRM has a bottom MLP");
        let last_index =
            full.timings().iter().rposition(|t| t.name.starts_with("bottom_mlp")).unwrap();
        assert_eq!(tail.op_index, last_index);
    }

    #[test]
    fn prepared_simulator_replays_bit_for_bit() {
        // The prepare-once/run-many path must agree with the one-shot
        // engine exactly — timings, timeline, segments, activity — for
        // uniform-zero, empty, and staggered release vectors.
        let wl = Workload::dlrm(DlrmSize::Small).with_batch(64);
        let chip = ChipConfig::new(NpuGeneration::D, 1);
        let graph = wl.build_graph(&ParallelismConfig::single());
        let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
        let sim = Simulator::new(chip);
        let prepared = sim.prepare(&compiled);
        let mut scratch = crate::timeline::EngineScratch::default();
        let staggered: Vec<u64> =
            (0..compiled.num_anchors() as u64).map(|i| i * 37 % 5000).collect();
        for releases in [&[] as &[u64], &vec![0; compiled.num_anchors()][..], &staggered[..]] {
            let fresh = sim.run_with_releases(&compiled, releases);
            let replayed = prepared.run_with_scratch(releases, &mut scratch);
            assert_eq!(fresh, replayed, "prepared replay diverged from the one-shot engine");
        }
    }

    #[test]
    fn replays_share_the_per_anchor_records_and_own_only_the_schedule() {
        // Two replays of one prepared simulator under different release
        // vectors: the release-independent records are one shared
        // allocation, never a per-replay copy, while the schedules differ.
        let wl = Workload::dlrm(DlrmSize::Small).with_batch(64);
        let chip = ChipConfig::new(NpuGeneration::D, 1);
        let graph = wl.build_graph(&ParallelismConfig::single());
        let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
        let prepared = Simulator::new(chip).prepare(&compiled);
        let delayed = vec![10_000; compiled.num_anchors()];
        let early = prepared.run_with_releases(&[]);
        let late = prepared.run_with_releases(&delayed);
        assert!(std::ptr::eq(early.timings(), late.timings()), "replay copied the records");
        let sink = early.timings().len() - 1;
        assert!(!early.producers_of(sink).is_empty());
        assert!(std::ptr::eq(early.producers_of(sink), late.producers_of(sink)));
        assert_ne!(early.schedule(), late.schedule());
        assert_eq!(late.schedule()[0].span_start(), 10_000);
    }

    #[test]
    fn the_engine_and_every_replay_share_one_producer_store() {
        // `prepare` hands the engine the compiled graph's anchor-space
        // adjacency as it is: the engine's phase graph and the results of
        // two replays hold one `Arc`, and no per-anchor list is copied.
        let wl = Workload::dlrm(DlrmSize::Small).with_batch(64);
        let chip = ChipConfig::new(NpuGeneration::D, 1);
        let graph = wl.build_graph(&ParallelismConfig::single());
        let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
        let prepared = Simulator::new(chip).prepare(&compiled);
        let store = prepared.engine.phases().producers();
        assert_eq!(**store, compiled.anchor_producers());
        for releases in [vec![], vec![10_000; compiled.num_anchors()]] {
            let result = prepared.run_with_releases(&releases);
            assert!(Arc::ptr_eq(store, &result.anchor_producers), "replay copied the store");
        }
    }

    #[test]
    fn concatenation_and_preparation_share_the_operator_names() {
        let chip = ChipConfig::new(NpuGeneration::D, 1);
        let graph = Workload::dlrm(DlrmSize::Small).build_graph(&ParallelismConfig::single());
        let template = Compiler::new(chip.spec().clone()).compile(&graph);
        let mut combined = CompiledGraph::empty("combined");
        for _ in 0..3 {
            let range = combined.extend_from(&template);
            for (appended, original) in combined.ops()[range].iter().zip(template.ops()) {
                assert!(Arc::ptr_eq(&appended.op.name, &original.op.name), "{}", original.op.name);
            }
        }
        let prepared = Simulator::new(chip).prepare(&combined);
        let result = prepared.run_with_releases(&[]);
        assert_eq!(result.timings().len(), combined.num_anchors());
        for (timing, anchor) in result.timings().iter().zip(combined.anchors()) {
            assert!(Arc::ptr_eq(&timing.name, &anchor.op.name), "{}", anchor.op.name);
        }
    }

    /// A DLRM-S template, its profile on `chip`, and the concatenation
    /// of two copies.
    fn doubled_template(chip: &ChipConfig) -> (AnchorProfile, CompiledGraph) {
        let graph = Workload::dlrm(DlrmSize::Small).build_graph(&ParallelismConfig::single());
        let template = Compiler::new(chip.spec().clone()).compile(&graph);
        let mut combined = CompiledGraph::empty("combined");
        combined.extend_from(&template);
        combined.extend_from(&template);
        (Simulator::new(chip.clone()).profile(&template), combined)
    }

    #[test]
    #[should_panic(expected = "the profiles cover")]
    fn assembling_parts_that_miss_anchors_panics_naming_the_counts() {
        let chip = ChipConfig::new(NpuGeneration::D, 1);
        let (profile, combined) = doubled_template(&chip);
        let _ = Simulator::new(chip).assemble(&combined, vec![Arc::new(profile)]);
    }

    #[test]
    #[should_panic(expected = "assembled on 1 chip(s) of D")]
    fn assembling_another_chips_profile_panics_naming_both_chips() {
        let (profile, combined) = doubled_template(&ChipConfig::new(NpuGeneration::C, 1));
        let profile = Arc::new(profile);
        let chip = ChipConfig::new(NpuGeneration::D, 1);
        let _ = Simulator::new(chip).assemble(&combined, vec![Arc::clone(&profile), profile]);
    }

    #[test]
    fn analyzing_a_release_vector_of_the_wrong_length_is_denied_not_panicked() {
        // Releases are per anchor. A vector of any other length, the
        // per-operator count of a fused graph included, is a denial that
        // names its rule and brackets no makespan.
        let chip = ChipConfig::new(NpuGeneration::D, 1);
        let graph = Workload::dlrm(DlrmSize::Small).build_graph(&ParallelismConfig::single());
        let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
        assert!(compiled.num_anchors() < compiled.len(), "the graph must fuse");
        let prepared = Simulator::new(chip).prepare(&compiled);
        let report = prepared.analyze(&vec![7; compiled.num_anchors()], None);
        assert!(report.is_schedulable(), "{}", report.render());
        for len in [compiled.num_anchors() + 1, compiled.len()] {
            let report = prepared.analyze(&vec![7; len], None);
            assert!(
                report
                    .denials()
                    .any(|d| d.rule_id == crate::analysis::rules::TIME_RELEASE_LENGTH_MISMATCH),
                "{len} releases: {}",
                report.render()
            );
            assert_eq!(report.makespan_window, None);
        }
    }

    // ---- sram_demand_percentile_mib boundary semantics ----
    //
    // The percentile is execution-time weighted: sort demands ascending,
    // then walk until the accumulated cycles reach
    // `ceil(p/100 * total_cycles)`. These tests pin the edges.

    /// A result whose demand profile is exactly two operators of 50 cycles
    /// each: demands 1 MiB and 3 MiB.
    fn two_bucket_result() -> SimulationResult {
        let mut doctored = simulate(Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode), 1);
        let mib = 1024 * 1024;
        let mut timings = doctored.timings[..2].to_vec();
        timings[0].sram_demand_bytes = mib;
        timings[1].sram_demand_bytes = 3 * mib;
        doctored.timings = timings.into();
        let span = |start| ScheduledOp {
            dma_start: start,
            dma_end: start,
            main_start: start,
            main_end: start + 50,
            finish: start + 50,
        };
        doctored.schedule = vec![span(0), span(50)];
        doctored
    }

    #[test]
    fn percentile_zero_returns_the_smallest_demand() {
        // p = 0 → target = ceil(0) = 0, satisfied by the first bucket:
        // the 0th percentile is the minimum demand, never 0.0-by-fiat.
        let result = two_bucket_result();
        assert_eq!(result.sram_demand_percentile_mib(0.0), 1.0);
        // Out-of-range percentiles clamp, not extrapolate.
        assert_eq!(result.sram_demand_percentile_mib(-10.0), 1.0);
    }

    #[test]
    fn percentile_hundred_returns_the_largest_demand() {
        // p = 100 → target = total; only the full walk reaches it, so the
        // answer is the maximum demand even though `acc >= target` fires
        // exactly at the last bucket's edge.
        let result = two_bucket_result();
        assert_eq!(result.sram_demand_percentile_mib(100.0), 3.0);
        assert_eq!(result.sram_demand_percentile_mib(250.0), 3.0);
    }

    #[test]
    fn percentile_landing_exactly_on_a_bucket_edge_stays_in_that_bucket() {
        // p = 50 over 100 total cycles → target = 50 exactly — the edge of
        // the first bucket. `acc >= target` must include the boundary, so
        // the median of {1 MiB × 50cy, 3 MiB × 50cy} is 1 MiB, and any
        // nudge past the edge (ceil rounds up) tips into the next bucket.
        let result = two_bucket_result();
        assert_eq!(result.sram_demand_percentile_mib(50.0), 1.0);
        assert_eq!(result.sram_demand_percentile_mib(50.0001), 3.0);
    }

    #[test]
    fn idle_histogram_matches_activity_idle_cycles() {
        for (label, result) in table4_simulations() {
            let histogram = result.idle_histogram();
            for kind in ComponentKind::ALL {
                assert_eq!(
                    histogram.total_idle_cycles(kind),
                    result.activity().idle_cycles(kind),
                    "{label}/{kind:?}: histogram does not cover the idle cycles"
                );
            }
        }
    }

    #[test]
    fn activity_totals_match_timeline() {
        let result = simulate(Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Prefill), 1);
        assert_eq!(result.activity().total_cycles(), result.total_cycles());
        for kind in ComponentKind::ALL {
            assert_eq!(
                result.activity().busy_cycles(kind),
                result.busy_timeline().busy_cycles(kind)
            );
        }
    }
}
