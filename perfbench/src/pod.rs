//! `pod_export`: each point builds one seeded pipeline-parallel pod trace
//! with a trailing all-reduce, runs it, analyzes it, prices it with
//! `pod_static_gating`, and exports it through `TraceRecorder` and
//! `PowerTimeline` — the path of the `trace_export` binary.

use std::collections::BTreeMap;

use npu_arch::{ComponentKind, LinkGraph, NpuGeneration, NpuSpec, PodTopology, TorusKind};
use npu_compiler::CollectivePlan;
use npu_models::CollectiveKind;
use npu_power::energy::ChipUsage;
use npu_power::{ComponentGating, EnergyBreakdown, GatingParams, PowerModel, PowerTimeline};
use npu_power::{SramGateMode, NPU_DUTY_CYCLE};
use npu_sim::pod::pipeline_trace;
use npu_sim::{analysis, EngineScratch, Schedule, SplitMix64, TraceRecorder};
use regate::pod_static_gating;

use crate::bench::{Bench, Counts, Point};
use crate::trace::{Layer, Tracer};

/// Pod sizes, one per slot.
const CHIPS: [usize; 3] = [4, 8, 16];
/// Microbatches pushed through the pipeline per point.
const MICROBATCHES: usize = 128;

pub struct Pod {
    spec: NpuSpec,
    model: PowerModel,
    gating: GatingParams,
    scratch: EngineScratch,
}

impl Pod {
    pub fn new() -> Self {
        let spec = NpuSpec::generation(NpuGeneration::D);
        let model = PowerModel::new(&spec);
        Pod { spec, model, gating: GatingParams::default(), scratch: EngineScratch::default() }
    }
}

/// Folds a pod schedule's kind-level busy timeline into watts(t) under
/// the default gating parameters, renders the waveform, and returns
/// whether its integral matches the energy breakdown built from the same
/// interval walks.
fn power_export(
    schedule: &Schedule,
    spec: &NpuSpec,
    model: &PowerModel,
    params: &GatingParams,
) -> bool {
    let spc = spec.cycle_seconds();
    let makespan = schedule.makespan;
    let busy_of = |kind: ComponentKind| -> Vec<(u64, u64)> {
        schedule.timeline.intervals(kind).iter().map(|iv| (iv.start, iv.end)).collect()
    };
    // Dynamic energy is spread over busy intervals, so only components
    // the schedule exercised carry any.
    let active = |kind: ComponentKind, value: f64| {
        if schedule.timeline.intervals(kind).is_empty() {
            0.0
        } else {
            value
        }
    };
    let usage = ChipUsage {
        busy_seconds: makespan as f64 * spc,
        sa_flops: active(ComponentKind::Sa, 1e12),
        vu_flops: active(ComponentKind::Vu, 2e11),
        hbm_bytes: active(ComponentKind::Hbm, 3e9),
        ici_bytes: active(ComponentKind::Ici, 1e9),
        sram_bytes: active(ComponentKind::Sram, 9e9),
        dma_bytes: active(ComponentKind::Dma, 3e9),
    };
    let baseline = EnergyBreakdown::no_power_gating_with_duty(model, &usage, NPU_DUTY_CYCLE);

    let mut timeline = PowerTimeline::new(spc, makespan);
    let mut equivalent_seconds = BTreeMap::new();
    for kind in ComponentKind::ALL {
        let intervals = busy_of(kind);
        let gating = ComponentGating::for_kind(params, kind, SramGateMode::Drowsy);
        timeline.add_component(
            kind,
            model.static_power_w(kind),
            baseline.component(kind).dynamic_j,
            &intervals,
            gating,
        );
        let busy_cycles: u64 = intervals.iter().map(|(s, e)| e - s).sum();
        let equivalent = match gating {
            None => makespan as f64,
            Some(g) => {
                let gaps =
                    schedule.timeline.idle_intervals(kind, makespan).into_iter().map(|iv| iv.len());
                let walk =
                    GatingParams::walk_idle_intervals(gaps, g.bet, g.delay, g.leak, g.policy);
                busy_cycles as f64 + walk.equivalent_cycles
            }
        };
        equivalent_seconds.insert(kind, equivalent * spc);
    }
    let gated = EnergyBreakdown::gated(&baseline, model, &equivalent_seconds, 0.0, 0.0);
    std::hint::black_box(timeline.waveform_json());
    timeline.energy_matches(gated.total_j(), 1e-9)
}

impl Bench for Pod {
    fn round_len(&self) -> usize {
        CHIPS.len()
    }

    /// Pod points are short; a longer reference pass keeps set-up well
    /// above timer and scheduler noise.
    fn reference_rounds(&self) -> usize {
        64
    }

    fn point(&mut self, slot: usize, seed: u64, tr: &mut Tracer) -> Point {
        let chips = CHIPS[slot];
        // Stage imbalance and all-reduce size come from the point's seed.
        let mut rng = SplitMix64::new(seed);
        let stages: Vec<u64> = (0..chips).map(|_| rng.range(5_000, 20_000)).collect();
        let allreduce_cycles = rng.range(8_000, 20_000);

        let (graph, engine) = tr.span(Layer::PodBuild, || {
            let graph = LinkGraph::torus(&PodTopology::for_chips(TorusKind::Torus3D, chips));
            let mut builder = pipeline_trace(&graph, &stages, MICROBATCHES);
            let plan = CollectivePlan::lower(CollectiveKind::AllReduce, allreduce_cycles, &graph);
            let tail = builder.len() - 1;
            builder.push_collective(&plan, vec![tail]);
            (graph, builder.engine())
        });
        let scratch = &mut self.scratch;
        let schedule = tr.span(Layer::PodRun, || engine.run_with_scratch(&[], scratch));
        let makespan = schedule.makespan;
        let report = tr.span(Layer::Analysis, || {
            analysis::analyze_pod(engine.phases(), &[], &engine.resources(), &graph, Some(makespan))
        });
        let (gating, spec) = (&self.gating, &self.spec);
        let priced = tr.span(Layer::CorePodGating, || pod_static_gating(&schedule, gating, spec));

        let (recorder, observed) = tr.span(Layer::ObsTrace, || {
            let mut recorder = TraceRecorder::for_set(&engine.resources());
            let observed = engine.run_with_scratch_observed(&[], scratch, &mut recorder);
            std::hint::black_box(recorder.chrome_json().len());
            (recorder, observed)
        });
        let export = tr.span(Layer::Analysis, || {
            analysis::check_trace_export(&recorder, &schedule.resource_timeline, makespan)
        });
        let model = &self.model;
        let energy_matches =
            tr.span(Layer::ObsPower, || power_export(&schedule, spec, model, gating));

        let in_window = report.makespan_window.is_some_and(|w| w.contains(makespan));
        Point {
            ok: report.is_schedulable()
                && in_window
                && export.is_empty()
                && energy_matches
                && observed == schedule,
            makespan_cycles: makespan,
            full_savings: priced.whole_chip_savings(),
            p99_latency_cycles: makespan,
            counts: Counts {
                events_popped: schedule.counters.events_popped,
                heap_peak: schedule.counters.heap_peak,
                collective_hops: schedule.counters.collective_hops,
                ..Counts::default()
            },
        }
    }
}
