//! Invariant net for the arrival-driven serving layer (`npu-serving`).
//!
//! A seeded arrival corpus (deterministic [`SplitMix64`]-driven Poisson
//! traces plus fixed-rate and bursty shapes) drives the full pipeline —
//! arrivals → batch formation → request-graph lowering → release-time
//! scheduling — and asserts the properties no refactor may break:
//!
//! (a) **release causality** — no anchor's scheduled span starts before
//!     the release cycle its batch dispatched at;
//! (b) **determinism** — FIFO batch formation and the resulting schedule
//!     are bit-for-bit reproducible per seed;
//! (c) **load monotonicity** — stretching the same arrival order to lower
//!     offered load never shrinks the makespan;
//! (d) **saturation identity** — at saturating load (every request at
//!     cycle 0) the serving schedule reproduces the existing cycle-0
//!     batch run *bit for bit*, pinned by an FNV-1a digest over every
//!     scheduled phase time and the full idle histogram;
//! (e) **accounting** — queueing + service = latency per request, and the
//!     low-load trace exposes long inter-request idle intervals that the
//!     unmodified interval-walking evaluator actually gates.

use std::sync::Arc;

use npu_arch::{ChipConfig, ComponentKind, NpuGeneration};
use npu_compiler::{CompiledGraph, Compiler};
use npu_models::{CollectiveKind, DlrmSize, LlamaModel, LlmPhase, OpKind, Workload};
use npu_serving::{ArrivalProcess, BatchPolicy, ServingOutcome, ServingReport, ServingSimulator};
use npu_sim::{AnchorProfile, IdleHistogram, SimulationResult, Simulator, SplitMix64 as Rng};
use regate::{Design, Evaluator};
use regate_bench::Fnv1a as Fnv;

/// Per-request sample count used throughout the corpus.
const SAMPLES_PER_REQUEST: u64 = 32;

fn dlrm_server() -> ServingSimulator {
    ServingSimulator::new(
        NpuGeneration::D,
        1,
        Workload::dlrm(DlrmSize::Small).with_batch(SAMPLES_PER_REQUEST),
    )
}

fn corpus_policies() -> Vec<BatchPolicy> {
    vec![
        BatchPolicy::Static { batch: 4 },
        BatchPolicy::DynamicWindow { max_batch: 4, max_wait_cycles: 30_000 },
    ]
}

/// Digest of everything the schedule decided: every phase time of every
/// operator plus the complete per-component idle histogram.
fn schedule_digest(sim: &SimulationResult) -> u64 {
    let mut fnv = Fnv::new();
    fnv.push(sim.total_cycles());
    for s in sim.schedule() {
        fnv.push(s.span_start());
        fnv.push(s.main_start);
        fnv.push(s.span_cycles());
    }
    let histogram = sim.idle_histogram();
    for kind in ComponentKind::ALL {
        for b in histogram.buckets(kind) {
            fnv.push(b.lower);
            fnv.push(b.count);
            fnv.push(b.total_cycles);
        }
    }
    fnv.digest()
}

fn check_release_causality(outcome: &ServingOutcome, label: &str) {
    let sim = &outcome.simulation;
    let mut released_late = 0usize;
    for (k, (t, s)) in sim.timings().iter().zip(sim.schedule()).enumerate() {
        let release = sim.release_of(k);
        assert!(
            s.span_start() >= release,
            "{label}: anchor {k} ({}) starts at {} before its release {release}",
            t.name,
            s.span_start()
        );
        if release > 0 {
            released_late += 1;
        }
    }
    if outcome.batches.iter().any(|b| b.dispatch_cycle > 0) {
        assert!(released_late > 0, "{label}: no anchor carried a non-zero release");
    }
    // The release rule itself: every operator of a batch runs on an
    // anchor released at exactly that batch's dispatch cycle.
    let positions = outcome.compiled.anchor_positions();
    for (index, batch) in outcome.batches.iter().enumerate() {
        for op in batch.ops.clone() {
            assert_eq!(
                sim.release_of(positions[op]),
                batch.dispatch_cycle,
                "{label}: op {op} of batch {index} is not released at its dispatch"
            );
        }
    }
}

fn check_request_accounting(outcome: &ServingOutcome, label: &str) {
    assert!(!outcome.requests.is_empty(), "{label}: no requests recorded");
    for (i, r) in outcome.requests.iter().enumerate() {
        assert!(r.dispatch_cycle >= r.arrival_cycle, "{label}: request {i} dispatched early");
        assert!(r.completion_cycle >= r.dispatch_cycle, "{label}: request {i} completed early");
        assert_eq!(
            r.queueing_cycles() + r.service_cycles(),
            r.latency_cycles(),
            "{label}: request {i} latency split does not add up"
        );
        let batch = &outcome.batches[r.batch];
        assert_eq!(batch.dispatch_cycle, r.dispatch_cycle, "{label}: request {i} batch mismatch");
        assert_eq!(batch.completion_cycle, r.completion_cycle);
        assert!(
            r.completion_cycle <= outcome.makespan_cycles(),
            "{label}: completion past the makespan"
        );
    }
    // Batches tile the request index space FIFO.
    let mut cursor = 0usize;
    for b in &outcome.batches {
        assert_eq!(b.requests.start, cursor, "{label}: batches must be contiguous FIFO chunks");
        cursor = b.requests.end;
    }
    assert_eq!(cursor, outcome.requests.len());
}

#[test]
fn seeded_corpus_honours_releases_and_accounting() {
    let server = dlrm_server();
    for seed in 0..6u64 {
        let arrivals =
            ArrivalProcess::Poisson { mean_interval_cycles: 40_000.0 * (seed as f64 + 0.5), seed }
                .arrivals(10);
        for policy in corpus_policies() {
            let label = format!("seed {seed} / {}", policy.label());
            let outcome = server.run(&arrivals, &policy);
            check_release_causality(&outcome, &label);
            check_request_accounting(&outcome, &label);
        }
    }
    // The bursty shape exercises the widest dispatch spread.
    let bursty = ArrivalProcess::BurstyOnOff {
        burst_len: 4,
        intra_burst_cycles: 1_000,
        off_cycles: 500_000,
    }
    .arrivals(12);
    for policy in corpus_policies() {
        let outcome = server.run(&bursty, &policy);
        check_release_causality(&outcome, &format!("bursty / {}", policy.label()));
        check_request_accounting(&outcome, &format!("bursty / {}", policy.label()));
    }
}

#[test]
fn static_analyzer_verifies_every_corpus_outcome() {
    // The analyzer is an oracle over the serving pipeline: every corpus
    // outcome must verify with zero Deny diagnostics, and the static
    // makespan window computed from the batch release vector must contain
    // the makespan the event loop measured.
    let server = dlrm_server();
    let mut traces: Vec<(String, Vec<u64>)> = Vec::new();
    for seed in 0..6u64 {
        traces.push((
            format!("poisson-{seed}"),
            ArrivalProcess::Poisson { mean_interval_cycles: 40_000.0 * (seed as f64 + 0.5), seed }
                .arrivals(10),
        ));
    }
    traces.push((
        "bursty".to_string(),
        ArrivalProcess::BurstyOnOff {
            burst_len: 4,
            intra_burst_cycles: 1_000,
            off_cycles: 500_000,
        }
        .arrivals(12),
    ));
    for (name, arrivals) in &traces {
        for policy in corpus_policies() {
            let label = format!("{name} / {}", policy.label());
            let outcome = server.run(arrivals, &policy);
            let report = server.verify(&outcome);
            assert!(
                report.is_schedulable(),
                "{label}: analyzer denied a live serving outcome:\n{}",
                report.render()
            );
            let window = report.makespan_window.expect("verified outcomes carry a window");
            assert!(
                window.contains(outcome.makespan_cycles()),
                "{label}: measured makespan {} outside static window [{}, {}]",
                outcome.makespan_cycles(),
                window.lower_cycles,
                window.upper_cycles
            );
        }
    }
}

#[test]
fn batch_formation_and_schedule_are_deterministic_per_seed() {
    let server = dlrm_server();
    let process = ArrivalProcess::Poisson { mean_interval_cycles: 60_000.0, seed: 99 };
    let policy = BatchPolicy::DynamicWindow { max_batch: 4, max_wait_cycles: 25_000 };
    let a = server.run(&process.arrivals(12), &policy);
    let b = server.run(&process.arrivals(12), &policy);
    assert_eq!(a.batches, b.batches, "FIFO batch formation must be deterministic per seed");
    assert_eq!(a.requests, b.requests);
    assert_eq!(schedule_digest(&a.simulation), schedule_digest(&b.simulation));
    // A different seed produces a different trace and (generically) a
    // different schedule.
    let other = server.run(
        &ArrivalProcess::Poisson { mean_interval_cycles: 60_000.0, seed: 100 }.arrivals(12),
        &policy,
    );
    assert_ne!(
        schedule_digest(&a.simulation),
        schedule_digest(&other.simulation),
        "different seeds collapsed to one schedule"
    );
}

#[test]
fn makespan_grows_monotonically_as_offered_load_falls() {
    // The same request count at sinking offered load (growing inter-
    // arrival gap) can only push completions later: the makespan is
    // non-decreasing in the gap, for both policies.
    let server = dlrm_server();
    let intervals = [0u64, 20_000, 100_000, 400_000, 1_600_000];
    for policy in corpus_policies() {
        let mut last = 0u64;
        for &interval in &intervals {
            let arrivals = ArrivalProcess::FixedRate { interval_cycles: interval }.arrivals(8);
            let outcome = server.run(&arrivals, &policy);
            assert!(
                outcome.makespan_cycles() >= last,
                "{}: makespan {} shrank below {last} at interval {interval}",
                policy.label(),
                outcome.makespan_cycles()
            );
            last = outcome.makespan_cycles();
        }
        // The widest gap dominates the makespan outright.
        let saturated = server.run(&ArrivalProcess::saturating().arrivals(8), &policy);
        assert!(
            last > 2 * saturated.makespan_cycles(),
            "{}: low load ({last}) should dwarf the saturated makespan ({})",
            policy.label(),
            saturated.makespan_cycles()
        );
    }
}

/// The saturating serving run and the classic cycle-0 batch run for the
/// same workload, compiled from the same per-chip lowering.
fn saturating_pair(
    workload_per_request: Workload,
    requests: usize,
    num_chips: usize,
) -> (ServingOutcome, SimulationResult) {
    let server = ServingSimulator::new(NpuGeneration::D, num_chips, workload_per_request);
    let arrivals = ArrivalProcess::saturating().arrivals(requests);
    let outcome = server.run(&arrivals, &BatchPolicy::Static { batch: requests });
    // The pre-serving path: one batch of all samples, lowered into
    // `requests` chains, everything ready at cycle 0.
    let chip = ChipConfig::new(NpuGeneration::D, num_chips);
    let total = workload_per_request.with_batch(workload_per_request.batch() * requests as u64);
    let graph = total.build_request_graph(server.parallelism(), requests as u64);
    let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
    let reference = Simulator::new(chip).run(&compiled);
    (outcome, reference)
}

#[test]
fn saturating_load_reproduces_the_cycle0_batch_run_bit_for_bit() {
    for (workload, requests, chips) in [
        (Workload::dlrm(DlrmSize::Small).with_batch(SAMPLES_PER_REQUEST), 4usize, 1usize),
        (Workload::dlrm(DlrmSize::Medium).with_batch(64), 4, 8),
        (Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode).with_batch(2), 4, 1),
    ] {
        let label = workload.label();
        let (outcome, reference) = saturating_pair(workload, requests, chips);
        assert_eq!(
            outcome.makespan_cycles(),
            reference.total_cycles(),
            "{label}: saturated makespan diverges from the cycle-0 run"
        );
        // Bit-for-bit: every phase time and the full idle histogram agree,
        // pinned through one digest.
        assert_eq!(
            schedule_digest(&outcome.simulation),
            schedule_digest(&reference),
            "{label}: saturated schedule digest diverges from the cycle-0 batch run"
        );
        // And the strongest form: the per-anchor records and schedules
        // themselves.
        assert_eq!(outcome.simulation.timings(), reference.timings(), "{label}");
        assert_eq!(outcome.simulation.schedule(), reference.schedule(), "{label}");
        assert_eq!(
            outcome.simulation.busy_timeline(),
            reference.busy_timeline(),
            "{label}: busy tracks diverge"
        );
        // Every release really was zero: the identity case.
        for k in 0..outcome.simulation.timings().len() {
            assert_eq!(outcome.simulation.release_of(k), 0, "{label}: anchor {k}");
        }
    }
}

#[test]
fn cached_compile_path_matches_fresh_compile_bit_for_bit() {
    // The tentpole identity: `ServingSimulator::run` reuses compiled batch
    // subgraphs and a prepared simulator across repeated batch shapes, and
    // must reproduce the fresh-compile `run_uncached` schedule exactly —
    // every phase time and the full idle histogram, pinned through the FNV
    // digest — across Poisson (two seeds) and bursty arrivals under both
    // batch policies, plus the request/batch accounting derived from it.
    let server = dlrm_server();
    let mut traces: Vec<(String, Vec<u64>)> = Vec::new();
    for seed in [3u64, 17] {
        traces.push((
            format!("poisson-{seed}"),
            ArrivalProcess::Poisson { mean_interval_cycles: 80_000.0, seed }.arrivals(16),
        ));
    }
    traces.push((
        "bursty".to_string(),
        ArrivalProcess::BurstyOnOff {
            burst_len: 4,
            intra_burst_cycles: 1_000,
            off_cycles: 500_000,
        }
        .arrivals(16),
    ));
    for (name, arrivals) in &traces {
        for policy in corpus_policies() {
            let label = format!("{name} / {}", policy.label());
            let fresh = server.run_uncached(arrivals, &policy);
            let cached = server.run(arrivals, &policy);
            assert_eq!(
                schedule_digest(&cached.simulation),
                schedule_digest(&fresh.simulation),
                "{label}: cached-compile schedule diverges from the fresh compile"
            );
            assert_eq!(cached.simulation.timings(), fresh.simulation.timings(), "{label}");
            assert_eq!(cached.simulation.schedule(), fresh.simulation.schedule(), "{label}");
            assert_eq!(cached.batches, fresh.batches, "{label}: batch records diverge");
            assert_eq!(cached.requests, fresh.requests, "{label}: request records diverge");
            assert_eq!(
                cached.compiled.ops(),
                fresh.compiled.ops(),
                "{label}: concatenated compiled graphs diverge"
            );
            // Re-running the cached path (now a guaranteed cache hit, with
            // warm scratch buffers) stays deterministic.
            let replay = server.run(arrivals, &policy);
            assert_eq!(
                schedule_digest(&replay.simulation),
                schedule_digest(&cached.simulation),
                "{label}: cache-hit replay diverges"
            );
        }
    }
}

/// One deployment's batch templates as the serving layer lowers them (a
/// batch of `n` requests: the per-request workload scaled to `n` requests'
/// samples through `build_request_graph`), each compiled and profiled
/// once.
fn batch_templates(
    workload: Workload,
    chips: usize,
    max_batch: usize,
) -> (Simulator, Vec<(CompiledGraph, Arc<AnchorProfile>)>) {
    let chip = ChipConfig::new(NpuGeneration::D, chips);
    let parallelism = workload.default_parallelism(chip.spec(), chips).expect("feasible");
    let compiler = Compiler::new(chip.spec().clone());
    let simulator = Simulator::new(chip);
    let templates = (1..=max_batch)
        .map(|n| {
            let graph = workload
                .with_batch(workload.batch() * n as u64)
                .build_request_graph(&parallelism, n as u64);
            let compiled = compiler.compile(&graph);
            let profile = Arc::new(simulator.profile(&compiled));
            (compiled, profile)
        })
        .collect();
    (simulator, templates)
}

#[test]
fn traces_assembled_from_template_profiles_equal_preparing_the_concatenation() {
    // Preparation is anchor-local apart from the SRAM allocation's parity
    // and the DMA buffer ring, so a trace assembled from cached template
    // profiles must equal `prepare` of the same concatenation bit for bit:
    // results under batch releases, analyzer reports, and the operator
    // names it shares with the templates.
    let deployments = [
        ("decode x2", Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode).with_batch(2), 1, 4),
        ("dlrm-s x32", Workload::dlrm(DlrmSize::Small).with_batch(32), 1, 8),
        ("dlrm-s x32 on 2 chips", Workload::dlrm(DlrmSize::Small).with_batch(32), 2, 8),
    ];
    let mut rng = Rng::new(0xC044_05E5);
    for (label, workload, chips, max_batch) in deployments {
        let (simulator, templates) = batch_templates(workload, chips, max_batch);
        let merge = |compiled: &CompiledGraph| compiled.ops().last().expect("a merge").op.kind;
        if chips > 1 {
            assert!(
                templates.iter().all(|(compiled, _)| matches!(
                    merge(compiled),
                    OpKind::Collective { kind: CollectiveKind::AllGather, .. }
                )),
                "{label}: every batch must end in an all-gather merge"
            );
        }
        let odd = |size: usize| templates[size - 1].0.num_anchors() % 2 == 1;
        let mut odd_joins = 0;
        for case in 0..4 {
            let sizes: Vec<usize> =
                (0..rng.range(2, 6)).map(|_| rng.range(1, max_batch as u64) as usize).collect();
            odd_joins += sizes[..sizes.len() - 1].iter().filter(|&&size| odd(size)).count();
            let mut combined = CompiledGraph::empty(format!("{label} {sizes:?}"));
            let mut releases = Vec::new();
            let mut dispatch = 0u64;
            for &size in &sizes {
                let ops = combined.extend_from(&templates[size - 1].0);
                releases.resize(ops.end, dispatch);
                dispatch += rng.range(0, 400_000);
            }
            let parts: Vec<Arc<AnchorProfile>> =
                sizes.iter().map(|&size| Arc::clone(&templates[size - 1].1)).collect();
            let assembled = simulator.assemble(&combined, parts);
            let whole = simulator.prepare(&combined);
            let label = format!("{label}, case {case}, batches {sizes:?}");

            let result = assembled.run_with_releases(&releases);
            assert_eq!(result, whole.run_with_releases(&releases), "{label}");
            let makespan = Some(result.total_cycles());
            assert_eq!(
                assembled.analyze(&releases, makespan),
                whole.analyze(&releases, makespan),
                "{label}"
            );
            let mut anchor = 0;
            for &size in &sizes {
                for template_op in templates[size - 1].0.anchors() {
                    let timing = &result.timings()[anchor];
                    assert!(Arc::ptr_eq(&timing.name, &template_op.op.name), "{label}: {anchor}");
                    anchor += 1;
                }
            }
            assert_eq!(anchor, result.timings().len(), "{label}");
        }
        // An odd-length template before a join flips the SRAM parity of
        // every later batch, the case the assembly must not shortcut.
        assert!(odd_joins > 0, "{label}: no odd-length template precedes a join");
    }
}

#[test]
fn low_load_gaps_are_real_idle_intervals_that_the_evaluator_gates() {
    // A slow fixed-rate trace: 8 requests, one every 2M cycles. The
    // inter-request gaps must appear as long idle intervals on the busy
    // timeline, and the *unmodified* interval-walking evaluator must gate
    // them (ReGate-Full's savings over the trace far exceed the same
    // trace's saturated savings).
    let server = dlrm_server();
    let gap = 2_000_000u64;
    let low = server.run(
        &ArrivalProcess::FixedRate { interval_cycles: gap }.arrivals(8),
        &BatchPolicy::Static { batch: 1 },
    );
    let histogram: IdleHistogram = low.simulation.idle_histogram();
    for kind in [ComponentKind::Sa, ComponentKind::Vu, ComponentKind::Hbm] {
        assert!(
            histogram.gateable_cycles(kind, 100_000) > 6 * gap,
            "{kind:?}: the inter-request gaps are missing from the idle histogram"
        );
    }
    // Duty cycle measured from the schedule is far below saturation.
    assert!(
        low.measured_duty_cycle() < 0.5,
        "low-load duty cycle {} should sit well below 1",
        low.measured_duty_cycle()
    );
    let saturated =
        server.run(&ArrivalProcess::saturating().arrivals(8), &BatchPolicy::Static { batch: 8 });
    assert!(saturated.measured_duty_cycle() > low.measured_duty_cycle());

    let evaluator = Evaluator::new(NpuGeneration::D);
    let low_report = ServingReport::evaluate(&low, &evaluator);
    let sat_report = ServingReport::evaluate(&saturated, &evaluator);
    let low_savings = low_report.design(Design::ReGateFull).savings;
    let sat_savings = sat_report.design(Design::ReGateFull).savings;
    assert!(
        low_savings > sat_savings + 0.05,
        "gating over the gaps must add savings: low {low_savings} vs saturated {sat_savings}"
    );
    // NoPG pays for the gaps (leaking at full power through them), which
    // is where the extra savings come from.
    assert!(
        low_report.design(Design::NoPg).total_j > sat_report.design(Design::NoPg).total_j,
        "NoPG must burn leakage through the inter-request gaps"
    );
}

/// FNV-1a of every [`npu_sim::RunCounters`] field of one cached
/// `ServingSimulator::run` per (deployment, policy): a 64-request Poisson
/// trace (mean gap 100k cycles, seed 3) on Llama3-8B decode with two
/// samples per request and on DLRM-S with 32, each under a static batch
/// of 4 and a dynamic window of up to 8. Recorded before the event queue
/// split into lanes.
const SERVING_COUNTER_GOLDEN: [u64; 4] =
    [0x60A7_24AE_A73B_11C2, 0x5D1E_B41E_1604_34DB, 0x0FFC_554E_484A_4B1F, 0x7455_A91D_9145_763B];

#[test]
fn serving_replay_counters_match_the_recorded_digests() {
    let arrivals =
        ArrivalProcess::Poisson { mean_interval_cycles: 100_000.0, seed: 3 }.arrivals(64);
    let deployments = [
        Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode).with_batch(2),
        Workload::dlrm(DlrmSize::Small).with_batch(SAMPLES_PER_REQUEST),
    ];
    let policies = [
        BatchPolicy::Static { batch: 4 },
        BatchPolicy::DynamicWindow { max_batch: 8, max_wait_cycles: 50_000 },
    ];
    let mut measured = Vec::new();
    for workload in deployments {
        let server = ServingSimulator::new(NpuGeneration::D, 1, workload);
        for policy in &policies {
            let mut fnv = Fnv::new();
            fnv.push_counters(server.run(&arrivals, policy).simulation.counters());
            measured.push(fnv.digest());
        }
    }
    assert_eq!(
        measured, SERVING_COUNTER_GOLDEN,
        "serving event-loop counters drifted (measured: {:#018X?})",
        measured
    );
}
