//! Invariant net for the per-segment SRAM timeline (§4.3).
//!
//! Two corpora drive the checks:
//!
//! * a **seeded random-DAG corpus** (deterministic SplitMix64, the same
//!   idiom as `dag_invariants.rs`): random layered DAGs scheduled by the
//!   [`TimelineEngine`], paired with synthetic double-buffered allocations
//!   built through [`SramAllocation::from_buffers`], so the
//!   [`SegmentTimeline`] builder is exercised over thousands of
//!   topology × lifetime combinations;
//! * the **full pipeline** (workload → compile → allocate → simulate) for
//!   representative Table-4 workloads, checking the timeline the
//!   energy model actually consumes.
//!
//! Invariants, per segment: live intervals are non-empty, sorted,
//! disjoint, and bounded by the makespan; live plus dead cycles cover the
//! makespan exactly; the union-weighted live bytes at any instant never
//! exceed the scratchpad capacity; and the SRAM's busy track on the
//! component timeline equals the union of live segment intervals. The
//! final test pins the case that motivated the move off the span-weighted
//! capacity model: two concurrent operators' live segments must *sum*,
//! where the old normalization averaged them.

use npu_arch::{ChipConfig, ComponentKind, NpuGeneration, ParallelismConfig, SramGeometry};
use npu_compiler::{BufferLifetime, Compiler, SramAllocation};
use npu_models::{DlrmSize, LlamaModel, LlmPhase, Workload};
use npu_serving::{ArrivalProcess, BatchPolicy, ServingSimulator};
use npu_sim::timeline::{OpPhases, Resource, TimelineEngine};
use npu_sim::{CycleInterval, SegmentTimeline, Simulator, SplitMix64 as Rng, SramCapacityReport};

/// Number of random DAG seeds the invariant sweep covers.
const NUM_SEEDS: u64 = 60;

/// Random operator phases across all four units, with random producer
/// edges into earlier operators (layering kept implicit: any subset of
/// earlier indices is a valid topological producer set).
fn random_dag(rng: &mut Rng, n: usize) -> Vec<OpPhases> {
    let mut ops = Vec::with_capacity(n);
    for k in 0..n {
        let unit = match rng.range(0, 3) {
            0 => Resource::Sa,
            1 => Resource::Vu,
            2 => Resource::HbmDma,
            _ => Resource::Ici,
        };
        let main = rng.range(100, 8_000);
        let dma = if matches!(unit, Resource::Sa | Resource::Vu) { rng.range(0, 4_000) } else { 0 };
        let mut producers = Vec::new();
        if k > 0 {
            for _ in 0..rng.range(0, 2) {
                producers.push(rng.range(0, k as u64 - 1) as usize);
            }
            producers.sort_unstable();
            producers.dedup();
        }
        ops.push(OpPhases {
            unit: unit.into(),
            main_cycles: main,
            dma_cycles: dma,
            dma_lead_cycles: 0,
            fused_vu_cycles: 0,
            dispatch_cycles: 100,
            sa_active_cycles: if unit == Resource::Sa { main } else { 0 },
            producers,
            collective: None,
        });
    }
    ops
}

/// Synthetic double-buffered allocation over a 64-segment scratchpad:
/// buffers alternate between the bottom and top half (each at most a full
/// half), with the standard prefetch-to-consumption lifetime, so the
/// instantaneous sum across halves can never exceed the capacity — which
/// is exactly the invariant the timeline must preserve.
fn random_allocation(rng: &mut Rng, geometry: SramGeometry, n: usize) -> SramAllocation {
    let half = geometry.total_bytes() / 2;
    let buffers = (0..n)
        .map(|i| BufferLifetime {
            anchor_index: i,
            start_addr: if i % 2 == 0 { 0 } else { half },
            size_bytes: rng.range(1, half),
            live_from: i.saturating_sub(1),
            live_to: (i + 1).min(n - 1),
        })
        .collect();
    SramAllocation::from_buffers(geometry, buffers, n)
}

/// The definition `peak_live_bytes` sweeps: the largest instantaneous
/// live bytes over every live-interval start, one full `live_bytes_at`
/// scan per start (quadratic, so only for small timelines).
fn peak_by_definition(tl: &SegmentTimeline) -> u64 {
    tl.bands()
        .iter()
        .flat_map(|b| b.live.iter().map(|iv| iv.start))
        .map(|at| tl.live_bytes_at(at))
        .max()
        .unwrap_or(0)
}

fn check_segment_invariants(tl: &SegmentTimeline, capacity_bytes: u64, label: &str) {
    let makespan = tl.makespan();
    let mut prev_end = 0usize;
    for band in tl.bands() {
        assert!(band.num_segments > 0, "{label}: empty band");
        assert!(band.first_segment >= prev_end, "{label}: bands overlap or are unsorted");
        prev_end = band.first_segment + band.num_segments;
        assert!(prev_end <= tl.num_segments(), "{label}: band past the scratchpad");
        assert!(!band.live.is_empty(), "{label}: ever-live band without intervals");
        for iv in &band.live {
            assert!(iv.start < iv.end, "{label}: empty interval {iv:?}");
            assert!(iv.end <= makespan, "{label}: interval {iv:?} past makespan {makespan}");
        }
        for pair in band.live.windows(2) {
            assert!(pair[0].end < pair[1].start, "{label}: overlapping/abutting {pair:?}");
        }
        let dead: u64 = tl.dead_intervals_of(band).iter().map(CycleInterval::len).sum();
        assert_eq!(
            band.live_cycles() + dead,
            makespan,
            "{label}: live + dead must cover the makespan"
        );
    }
    // Union-weighted live bytes at any instant stay within the capacity.
    // The live set only changes at interval boundaries, so the peak scan
    // plus boundary samples cover every distinct instant. Note this bound
    // is partly structural — disjoint bands can never out-count the
    // segments that tile the scratchpad — so the corpus pairs it with the
    // *allocator-dominance* cross-checks below, which a builder bug
    // (lifetimes mapped onto the wrong operators' spans) does break.
    assert_eq!(tl.peak_live_bytes(), peak_by_definition(tl), "{label}: peak sweep");
    assert!(
        tl.peak_live_bytes() <= capacity_bytes,
        "{label}: peak live bytes {} exceed capacity {capacity_bytes}",
        tl.peak_live_bytes()
    );
    for band in tl.bands() {
        for iv in &band.live {
            for at in [iv.start, iv.end.saturating_sub(1)] {
                assert!(
                    tl.live_bytes_at(at) <= capacity_bytes,
                    "{label}: live bytes at {at} exceed capacity"
                );
            }
        }
    }
}

#[test]
fn random_dag_corpus_satisfies_segment_invariants() {
    let geometry = SramGeometry::new(256 * 1024, 4096);
    for seed in 0..NUM_SEEDS {
        let mut rng = Rng::new(0x5EA7_0000 ^ seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let n = rng.range(1, 24) as usize;
        let ops = random_dag(&mut rng, n);
        let alloc = random_allocation(&mut rng, geometry, n);
        let schedule = TimelineEngine::new(ops).run();
        let tl = SegmentTimeline::build(&alloc, &schedule.ops, schedule.makespan);
        let label = format!("seed {seed}");
        check_segment_invariants(&tl, geometry.total_bytes(), &label);
        // Every buffer's lifetime must be represented: the segments it
        // covers are live at least while its owning anchors run.
        assert!(tl.ever_live_segments() > 0, "{label}: nothing live");
        // The union never exceeds the makespan and matches band totals.
        let union_cycles: u64 = tl.live_union().iter().map(CycleInterval::len).sum();
        assert!(union_cycles <= schedule.makespan, "{label}");
        let max_band: u64 = tl.bands().iter().map(|b| b.live_cycles()).max().unwrap_or(0);
        assert!(union_cycles >= max_band, "{label}: union smaller than a member band");
        // Allocator dominance: while anchor `a`'s main phase runs, every
        // buffer live at `a` has been mapped onto the clock, so the
        // instantaneous union must cover at least the allocator's
        // anchor-level live segments. Unlike the capacity bound, this is
        // NOT structural: mapping a lifetime onto the wrong operator's
        // span (or dropping an anchor range) fails it.
        for (anchor, sched) in schedule.ops.iter().enumerate() {
            let at = sched.main_start;
            assert!(
                tl.live_bytes_at(at)
                    >= alloc.live_segments_at(anchor) as u64 * geometry.segment_bytes(),
                "{label}: at cycle {at} the union undercounts anchor {anchor}'s live segments"
            );
        }
    }
}

#[test]
fn random_corpus_is_deterministic() {
    let geometry = SramGeometry::new(256 * 1024, 4096);
    for seed in [0u64, 11, 42] {
        let build = || {
            let mut rng = Rng::new(0x5EA7_0000 ^ seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
            let n = rng.range(1, 24) as usize;
            let ops = random_dag(&mut rng, n);
            let alloc = random_allocation(&mut rng, geometry, n);
            let schedule = TimelineEngine::new(ops).run();
            SegmentTimeline::build(&alloc, &schedule.ops, schedule.makespan)
        };
        assert_eq!(build(), build(), "seed {seed}: timeline construction diverged");
    }
}

fn simulate(workload: Workload, chips: usize) -> npu_sim::SimulationResult {
    let chip = ChipConfig::new(NpuGeneration::D, chips);
    let parallelism = workload
        .default_parallelism(chip.spec(), chips)
        .unwrap_or(ParallelismConfig::new(chips, 1, 1));
    let graph = workload.build_graph(&parallelism);
    let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
    Simulator::new(chip).run(&compiled)
}

#[test]
fn full_pipeline_segment_timelines_satisfy_the_invariants() {
    for (workload, chips) in [
        (Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode), 1),
        (Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Prefill), 1),
        (Workload::dlrm(DlrmSize::Medium), 8),
    ] {
        let result = simulate(workload, chips);
        let tl = result.segment_timeline();
        let capacity = result.chip().spec().sram_bytes();
        let label = workload.label();
        assert_eq!(tl.makespan(), result.total_cycles(), "{label}");
        assert_eq!(
            tl.num_segments() as u64 * tl.segment_bytes(),
            capacity,
            "{label}: segments must tile the scratchpad"
        );
        check_segment_invariants(tl, capacity, &label);
        assert!(tl.ever_live_segments() > 0, "{label}");
        // The component timeline's SRAM busy track is exactly the union
        // of live segment intervals — the blanket [0, makespan) record is
        // gone.
        assert_eq!(
            result.busy_timeline().intervals(ComponentKind::Sram),
            tl.live_union().as_slice(),
            "{label}: SRAM busy track must equal the live-segment union"
        );
        // And the release-mode capacity audit passes.
        assert!(SramCapacityReport::for_simulation(&result).is_ok(), "{label}");
        // Allocator dominance (the non-structural direction): while an
        // operator's main phase runs, the instantaneous live union must
        // cover at least the live bytes the allocator reported for that
        // anchor (`OpTiming::sram_live_bytes`); a lifetime mapped onto
        // the wrong operator's span fails this.
        for (timing, scheduled) in result.timings().iter().zip(result.schedule()) {
            let at = scheduled.main_start;
            assert!(
                tl.live_bytes_at(at) >= timing.sram_live_bytes,
                "{label}: at cycle {at} the union ({}) undercounts {}'s live bytes ({})",
                tl.live_bytes_at(at),
                timing.name,
                timing.sram_live_bytes
            );
        }
    }
}

#[test]
fn serving_trace_peaks_match_the_definition() {
    // Serving traces carry thousands of live intervals across many bands,
    // unlike the single-batch runs above. 16 requests keep the quadratic
    // definition cheap in debug builds.
    let arrivals =
        ArrivalProcess::Poisson { mean_interval_cycles: 100_000.0, seed: 5 }.arrivals(16);
    for workload in [
        Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode).with_batch(2),
        Workload::dlrm(DlrmSize::Small).with_batch(32),
    ] {
        let server = ServingSimulator::new(NpuGeneration::D, 1, workload);
        for policy in [
            BatchPolicy::Static { batch: 4 },
            BatchPolicy::DynamicWindow { max_batch: 8, max_wait_cycles: 50_000 },
        ] {
            let label = format!("{} / {}", workload.label(), policy.label());
            let outcome = server.run(&arrivals, &policy);
            let tl = outcome.simulation.segment_timeline();
            assert!(tl.bands().len() > 1, "{label}: a single band exercises no sum");
            check_segment_invariants(tl, outcome.simulation.chip().spec().sram_bytes(), &label);
            let report = SramCapacityReport::for_simulation(&outcome.simulation);
            assert_eq!(report.peak_live_bytes, peak_by_definition(tl), "{label}");
        }
    }
}

#[test]
fn decode_leaves_most_segments_dead() {
    // The §4.3 motivation: LLM decode touches a small working set, so the
    // overwhelming majority of the 128 MiB scratchpad's segments are dead
    // for the entire execution — recoverable only by per-segment gating.
    let result = simulate(Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode), 1);
    let tl = result.segment_timeline();
    let ever_live = tl.ever_live_segments() as f64 / tl.num_segments() as f64;
    assert!(ever_live < 0.25, "decode keeps {ever_live:.3} of segments ever-live");
    let peak = tl.peak_live_bytes() as f64 / result.chip().spec().sram_bytes() as f64;
    assert!(peak < 0.25, "decode peak live fraction {peak:.3}");
}

fn source(unit: Resource, main: u64) -> OpPhases {
    OpPhases {
        unit: unit.into(),
        main_cycles: main,
        dma_cycles: 0,
        dma_lead_cycles: 0,
        fused_vu_cycles: 0,
        dispatch_cycles: 100,
        sa_active_cycles: if unit == Resource::Sa { main } else { 0 },
        producers: Vec::new(),
        collective: None,
    }
}

#[test]
fn concurrent_fan_out_live_segments_sum_where_the_old_model_averaged() {
    // Two independent (source) operators run concurrently on different
    // units, each holding one quarter of the scratchpad in its own
    // double-buffer half. At any overlapped instant *half* the scratchpad
    // is live. The deleted span-weighted model
    // (`total_cycles * Σ span·frac / Σ span`) averaged each operator's
    // quarter over its span and never saw the coexistence — the exact
    // mis-accounting ISSUE 4 fixes.
    let g = SramGeometry::new(64 * 1024, 4096);
    let buffer = |anchor: usize, addr: u64, from: usize, to: usize| BufferLifetime {
        anchor_index: anchor,
        start_addr: addr,
        size_bytes: 16 * 1024,
        live_from: from,
        live_to: to,
    };
    let alloc =
        SramAllocation::from_buffers(g, vec![buffer(0, 0, 0, 0), buffer(1, 32 * 1024, 1, 1)], 2);
    let schedule =
        TimelineEngine::new(vec![source(Resource::Sa, 10_000), source(Resource::Vu, 10_000)]).run();
    let tl = SegmentTimeline::build(&alloc, &schedule.ops, schedule.makespan);
    check_segment_invariants(&tl, g.total_bytes(), "fan-out");

    // Mid-run both operators' live segments coexist: the bytes sum.
    let mid = schedule.makespan / 2;
    assert_eq!(tl.live_bytes_at(mid), 32 * 1024, "concurrent live bytes must sum");

    // New model: time-averaged live fraction over segments.
    let live_cycles: u64 = tl.bands().iter().map(|b| b.live_cycles() * b.num_segments as u64).sum();
    let new_frac = live_cycles as f64 / (g.num_segments() as f64 * schedule.makespan as f64);
    // Old model: per-operator live fraction, span-weighted.
    let mut weighted = 0.0;
    let mut span_sum = 0.0;
    for (anchor, op) in schedule.ops.iter().enumerate() {
        let span = (op.finish - op.span_start()) as f64;
        weighted += span * alloc.live_bytes_at(anchor) as f64 / g.total_bytes() as f64;
        span_sum += span;
    }
    let old_frac = weighted / span_sum;
    assert!((old_frac - 0.25).abs() < 0.01, "old span-weighted fraction {old_frac}");
    assert!((new_frac - 0.5).abs() < 0.02, "new per-segment fraction {new_frac}");
    assert!(
        new_frac > old_frac + 0.2,
        "the models must diverge on concurrent liveness: old {old_frac}, new {new_frac}"
    );
}
