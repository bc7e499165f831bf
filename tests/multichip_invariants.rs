//! Multi-chip (pod) invariants over the dynamic-resource-set engine.
//!
//! Three layers: (1) per-hop ring collectives on an uncongested fabric
//! must reproduce the compiler's analytic model exactly (the analytic
//! single-phase cost was the oracle the per-hop lowering replaced);
//! (2) collectives contending for the same ring must serialize on the
//! shared link resources; (3) a seeded random pod corpus must satisfy the
//! structural invariants no particular trace exercises: per-link tracks
//! stay sorted and disjoint (no double-booking), the lowering agrees with
//! the fabric under the `topo.*` analyzer pass, repeated runs are
//! bit-identical, the measured makespan lands inside the static window,
//! the component timeline derived from the per-resource tracks equals a
//! live kind-level recording of the engine's hooks, and pod pricing's
//! watt-cycle totals match a recorded digest bit for bit.

use npu_arch::{LinkGraph, NpuGeneration, NpuSpec, PodTopology, TorusKind};
use npu_compiler::CollectivePlan;
use npu_models::CollectiveKind;
use npu_power::GatingParams;
use npu_sim::analysis::{self, rules};
use npu_sim::engine::DISPATCH_OVERHEAD_CYCLES;
use npu_sim::pod::{pipeline_trace, PodBuilder};
use npu_sim::timeline::{PhaseGraph, TimelineEngine};
use npu_sim::{EngineScratch, Resource, ResourceId, Schedule, TraceRecorder};
use regate::pod_static_gating;
use regate_bench::Fnv1a as Fnv;

mod common;
use common::LiveKindRecorder;

fn torus(kind: TorusKind, chips: usize) -> LinkGraph {
    LinkGraph::torus(&PodTopology::for_chips(kind, chips))
}

// ---------------------------------------------------------------------
// Per-hop lowering vs the analytic uncongested-ring oracle
// ---------------------------------------------------------------------

#[test]
fn ring_collectives_match_the_analytic_model_per_hop() {
    for torus_kind in [TorusKind::Torus2D, TorusKind::Torus3D] {
        for chips in [2usize, 4, 8, 16] {
            let graph = torus(torus_kind, chips);
            for (kind, total) in
                [(CollectiveKind::AllReduce, 100_000u64), (CollectiveKind::AllGather, 60_000)]
            {
                let plan = CollectivePlan::lower(kind, total, &graph);
                // The lowering conserves the analytic total exactly and
                // splits it evenly: every hop within 1 cycle of the mean.
                assert_eq!(plan.total_cycles(), total, "{torus_kind:?}/{chips}/{kind:?}");
                let steps = plan.step_cycles.len() as u64;
                for &step in &plan.step_cycles {
                    assert!(
                        step.abs_diff(total / steps) <= 1,
                        "{torus_kind:?}/{chips}/{kind:?}: hop {step} vs even {}",
                        total / steps
                    );
                }
                // On an uncongested ring the engine's per-hop occupancy
                // reproduces the analytic single-phase cost exactly.
                let mut builder = PodBuilder::new(&graph);
                builder.push_collective(&plan, vec![]);
                let schedule = builder.engine().run();
                assert_eq!(
                    schedule.makespan,
                    DISPATCH_OVERHEAD_CYCLES + total,
                    "{torus_kind:?}/{chips}/{kind:?}"
                );
            }
        }
    }
}

#[test]
fn contending_collectives_serialize_on_the_shared_ring() {
    let graph = torus(TorusKind::Torus2D, 4);
    let plan = CollectivePlan::lower(CollectiveKind::AllReduce, 10_000, &graph);
    let mut builder = PodBuilder::new(&graph);
    let set = builder.resources();
    // Two independent collectives (no producer edge) race for the ring.
    builder.push_collective(&plan, vec![]);
    builder.push_collective(&plan, vec![]);
    let schedule = builder.engine().run();
    assert_eq!(schedule.makespan, 2 * (DISPATCH_OVERHEAD_CYCLES + 10_000));
    // Each ring link carries exactly both transfers, nothing more.
    for &l in &plan.links {
        assert_eq!(schedule.resource_timeline.busy_cycles(set.link(l)), 2 * 10_000, "link {l}");
    }
}

#[test]
fn one_chip_collectives_are_denied_and_export_clean() {
    // A 1-chip fabric has no links, so the lowered all-reduce occupies no
    // resource. The topo pass must deny it, and the observed run's trace
    // still agrees with its own resource tracks: nothing is busy for it.
    let graph = torus(TorusKind::Torus2D, 1);
    let plan = CollectivePlan::lower(CollectiveKind::AllReduce, 9_000, &graph);
    assert!(plan.links.is_empty(), "a 1-chip torus has no links: {:?}", plan.links);
    let mut builder = PodBuilder::new(&graph);
    builder.push_unit(0, Resource::Sa, 1_000, 0, vec![]);
    builder.push_collective(&plan, vec![0]);
    let set = builder.resources();
    let report = analysis::analyze_pod(builder.phases(), &[], &set, &graph, None);
    assert!(!report.is_schedulable(), "a link-less collective passed:\n{}", report.render());
    assert!(
        report.denials().any(|d| d.rule_id == rules::TOPO_COLLECTIVE_LINKS_MISMATCH),
        "{}",
        report.render()
    );

    let engine = builder.engine();
    let mut recorder = TraceRecorder::for_set(&engine.resources());
    let schedule =
        engine.run_with_scratch_observed(&[], &mut EngineScratch::default(), &mut recorder);
    let diagnostics =
        analysis::check_trace_export(&recorder, &schedule.resource_timeline, schedule.makespan);
    assert!(diagnostics.is_empty(), "{diagnostics:?}");
}

// ---------------------------------------------------------------------
// Seeded random pod corpus
// ---------------------------------------------------------------------

/// Deterministically generates one random pod trace: unit work spread
/// across chips plus occasional ring collectives, with random backward
/// dependency edges.
fn random_pod(seed: u64) -> (LinkGraph, PodBuilder) {
    let mut rng = npu_sim::SplitMix64::new(seed);
    let torus_kind = if seed.is_multiple_of(2) { TorusKind::Torus2D } else { TorusKind::Torus3D };
    let chips = [2usize, 4, 8][(rng.range(0, 2)) as usize];
    let graph = torus(torus_kind, chips);
    let mut builder = PodBuilder::new(&graph);
    let ops = rng.range(6, 40);
    for k in 0..ops {
        let mut producers = Vec::new();
        for _ in 0..rng.range(0, 2) {
            if k > 0 {
                producers.push(rng.range(0, k - 1) as usize);
            }
        }
        producers.sort_unstable();
        producers.dedup();
        if rng.range(0, 9) < 2 {
            let kind = match rng.range(0, 4) {
                0 => CollectiveKind::AllReduce,
                1 => CollectiveKind::ReduceScatter,
                2 => CollectiveKind::AllGather,
                3 => CollectiveKind::AllToAll,
                _ => CollectiveKind::PointToPoint,
            };
            let plan = CollectivePlan::lower(kind, rng.range(100, 20_000), &graph);
            builder.push_collective(&plan, producers);
        } else {
            let chip = rng.range(0, chips as u64 - 1) as usize;
            let unit = [Resource::Sa, Resource::Vu, Resource::HbmDma, Resource::Ici]
                [rng.range(0, 3) as usize];
            builder.push_unit(chip, unit, rng.range(10, 5_000), rng.range(0, 2_000), producers);
        }
    }
    (graph, builder)
}

fn run_pod(seed: u64) -> (LinkGraph, PhaseGraph, Schedule) {
    let (graph, builder) = random_pod(seed);
    let phases = builder.phases().clone();
    let schedule = builder.engine().run();
    (graph, phases, schedule)
}

#[test]
fn seeded_pod_corpus_is_deterministic() {
    for seed in 0..16u64 {
        let (_, phases, schedule) = run_pod(seed);
        let again = run_pod(seed).2;
        assert_eq!(schedule, again, "seed {seed}: corpus generation or engine diverged");
        // And re-running the identical phase vector reproduces the run.
        let set = schedule.resources;
        let replay = TimelineEngine::with_resources(phases, set).run();
        assert_eq!(schedule, replay, "seed {seed}: replay diverged");
    }
}

#[test]
fn seeded_pod_tracks_are_sorted_and_disjoint() {
    for seed in 0..16u64 {
        let (_, _, schedule) = run_pod(seed);
        for idx in 0..schedule.resource_timeline.num_tracks() {
            let track = schedule.resource_timeline.track(ResourceId(u32::try_from(idx).unwrap()));
            for iv in track {
                assert!(iv.start < iv.end, "seed {seed}: empty interval on resource {idx}");
                assert!(iv.end <= schedule.makespan, "seed {seed}: busy past the makespan");
            }
            for w in track.windows(2) {
                assert!(
                    w[0].end <= w[1].start,
                    "seed {seed}: resource {idx} tracks overlap: {w:?}"
                );
            }
        }
    }
}

#[test]
fn seeded_pod_links_are_never_double_booked() {
    for seed in 0..16u64 {
        let (_, phases, schedule) = run_pod(seed);
        let set = schedule.resources;
        for l in 0..set.num_links() {
            let id = set.link(l);
            // Active occupancy span of every collective using this link.
            let mut spans: Vec<(u64, u64)> = phases
                .ops()
                .iter()
                .zip(&schedule.ops)
                .filter(|(p, _)| p.collective.as_ref().is_some_and(|c| c.links.contains(&id)))
                .map(|(p, op)| (op.main_start + p.dispatch_cycles, op.main_end))
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "seed {seed}: link {l} double-booked: {:?} overlaps {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }
}

#[test]
fn seeded_pod_corpus_passes_the_topo_pass_inside_the_window() {
    for seed in 0..16u64 {
        let (graph, phases, schedule) = run_pod(seed);
        let set = schedule.resources;
        let report = analysis::analyze_pod(&phases, &[], &set, &graph, Some(schedule.makespan));
        assert!(report.is_schedulable(), "seed {seed}:\n{}", report.render());
        let window = report.makespan_window.expect("structurally clean pod has a window");
        assert!(
            window.contains(schedule.makespan),
            "seed {seed}: makespan {} outside [{}, {}]",
            schedule.makespan,
            window.lower_cycles,
            window.upper_cycles
        );
    }
}

/// FNV-1a of every [`npu_sim::RunCounters`] field (per-link busy cycles
/// included) of every `run_pod(0..16)` run, recorded before the event
/// queue split into lanes.
const POD_COUNTER_GOLDEN: u64 = 0x82E4_CC29_8AE1_3EB3;

#[test]
fn seeded_pod_counters_match_the_recorded_digest() {
    let mut fnv = Fnv::new();
    for seed in 0..16u64 {
        fnv.push_counters(&run_pod(seed).2.counters);
    }
    assert_eq!(
        fnv.digest(),
        POD_COUNTER_GOLDEN,
        "pod event-loop counters drifted (measured: 0x{:016X})",
        fnv.digest()
    );
}

/// FNV-1a of the three watt-cycle totals of `pod_static_gating`, as bits,
/// over every `run_pod(0..16)` schedule and pipeline pods on 1, 4 and 16
/// chips of both tori, recorded before pod pricing read the `ReGate-Base`
/// policies from the component table.
const POD_PRICING_GOLDEN: u64 = 0x05CD_F2F8_2F16_D3C3;

#[test]
fn seeded_pod_pricing_matches_the_recorded_digest() {
    let gating = GatingParams::default();
    let spec = NpuSpec::generation(NpuGeneration::D);
    let mut fnv = Fnv::new();
    let mut push = |schedule: &Schedule| {
        let r = pod_static_gating(schedule, &gating, &spec);
        for total in [r.baseline_watt_cycles, r.per_component_watt_cycles, r.whole_chip_watt_cycles]
        {
            fnv.push(total.to_bits());
        }
    };
    for seed in 0..16u64 {
        push(&run_pod(seed).2);
    }
    // The 1-chip fabric has no links, so its chip ICI unit is priced.
    for torus_kind in [TorusKind::Torus2D, TorusKind::Torus3D] {
        for chips in [1usize, 4, 16] {
            let graph = torus(torus_kind, chips);
            let stages: Vec<u64> = (0..chips as u64).map(|s| 6_000 + 4_000 * (s * 7 % 5)).collect();
            push(&pipeline_trace(&graph, &stages, 8).engine().run());
        }
    }
    let digest = fnv.digest();
    assert_eq!(digest, POD_PRICING_GOLDEN, "pod pricing drifted (measured: 0x{digest:016X})");
}

/// Pod seeds the live kind oracle covers.
const ORACLE_POD_SEEDS: u64 = 256;

#[test]
fn seeded_pod_component_view_matches_live_kind_recording() {
    for seed in 0..ORACLE_POD_SEEDS {
        let engine = random_pod(seed).1.engine();
        let mut oracle = LiveKindRecorder::for_set(&engine.resources());
        let schedule =
            engine.run_with_scratch_observed(&[], &mut EngineScratch::default(), &mut oracle);
        assert_eq!(schedule.timeline, oracle.finish(schedule.makespan), "seed {seed}");
    }
}
