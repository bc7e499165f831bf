//! Golden-value regression net over the Table-4-style per-workload
//! evaluation (paper §6, Figure 17).
//!
//! Each row pins the ReGate design points' energy savings and the NoPG
//! static-energy fraction to the values produced by the analytical model
//! at the time this net was recorded, with a ±3-percentage-point band.
//! The bands are intentionally tighter than the claim ranges in
//! `paper_claims.rs`: their job is to catch *silent drift* of the energy
//! model during refactors, not to re-validate the paper. If a deliberate
//! model improvement moves a number, re-record the row and say why in the
//! commit message.
//!
//! The bands guard the headline savings only. The pricing digests at the
//! end of the file pin *every* pricing output bit for bit (per-component
//! energy, idle leakage, overhead, peak power and savings of every policy
//! kind, and the serving report rows) over a small fixed corpus, so a
//! refactor of the pricing path that claims to change nothing can prove
//! it.

use npu_arch::{ChipConfig, ComponentKind, NpuGeneration};
use npu_compiler::{CompiledGraph, Compiler};
use npu_models::{DiffusionModel, DlrmSize, LlamaModel, LlmPhase, Workload};
use npu_power::{EnergyBreakdown, NPU_DUTY_CYCLE};
use npu_serving::{ArrivalProcess, BatchPolicy, ServingReport, ServingSimulator};
use npu_sim::{SimulationResult, Simulator};
use regate::{Design, Evaluator, PolicyKind};
use regate_bench::Fnv1a;

/// Absolute tolerance on every recorded fraction (3 percentage points).
const TOL: f64 = 0.03;

/// One golden row: workload, chip count, then the recorded
/// (ReGate-Base, ReGate-HW, ReGate-Full, Ideal) energy savings and the
/// NoPG static-energy fraction.
struct GoldenRow {
    workload: Workload,
    chips: usize,
    base: f64,
    hw: f64,
    full: f64,
    ideal: f64,
    static_fraction: f64,
}

fn golden_rows() -> Vec<GoldenRow> {
    let row = |workload, chips, base, hw, full, ideal, static_fraction| GoldenRow {
        workload,
        chips,
        base,
        hw,
        full,
        ideal,
        static_fraction,
    };
    vec![
        // Recorded on NPU-D with the workloads' default batches (small chip
        // counts so the net stays fast; the full Table 4 scale is exercised
        // by the `evaluation` harness binary).
        //
        // Re-recorded with the event-timeline engine and interval-accurate
        // gating: overlapped DMA shrinks the makespan (lower static
        // fractions), hardware idle detection now walks real idle
        // intervals (Base recovers inter-operator gaps it previously could
        // not see, raising decode Base savings), and component-level SA
        // gating no longer credits sub-BET gaps (slightly lower
        // prefill/diffusion Full savings).
        //
        // Re-recorded again when SRAM gating moved from the span-weighted
        // capacity snapshot onto the per-segment event timeline (§4.3,
        // ISSUE 4): a segment now burns full static power for its *whole*
        // live clock interval — including prefetch lead-in and
        // producer-wait gaps the per-operator averaging never charged —
        // and dead intervals pay real break-even filtering and retention
        // transition costs. Workloads with larger live working sets
        // (training, prefill, diffusion) shift down up to ~1pp; decode and
        // DLRM, whose scratchpads are almost entirely dead segments, are
        // unchanged at this precision. NoPG static fractions are untouched
        // (the baseline never gates). The out-of-duty-cycle idle leakage
        // also switched from `max(logic_off, sram_off)` to per-component
        // weighting, which does not enter these busy-energy rows.
        row(
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Training),
            4,
            0.1178,
            0.1204,
            0.1238,
            0.1249,
            0.5360,
        ),
        row(
            Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Training),
            4,
            0.1123,
            0.1151,
            0.1160,
            0.1170,
            0.5355,
        ),
        row(
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill),
            1,
            0.1110,
            0.1137,
            0.1166,
            0.1187,
            0.5293,
        ),
        row(
            Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Prefill),
            1,
            0.1091,
            0.1120,
            0.1125,
            0.1147,
            0.5321,
        ),
        row(
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode),
            1,
            0.2414,
            0.2414,
            0.2761,
            0.2806,
            0.6717,
        ),
        row(
            Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Decode),
            1,
            0.2413,
            0.2413,
            0.2760,
            0.2805,
            0.6715,
        ),
        row(
            Workload::llm(LlamaModel::Llama3_70B, LlmPhase::Decode),
            8,
            0.2397,
            0.2397,
            0.2744,
            0.2789,
            0.6714,
        ),
        // DLRM rows re-recorded for the DAG-aware scheduler. Three model
        // changes contribute to the shift: (1) the graph now emits
        // per-table gathers as independent sources fanning into the
        // all-to-all, so the gathers and the bottom MLP overlap the
        // exchange instead of serializing before it (makespan shrinks and
        // the static fraction drops with it); (2) the pairwise feature
        // interaction is lowered as batched VU dot products instead of an
        // SA matmul (its per-sample shapes cannot amortize the SA warm-up,
        // §4.3), moving its cycles from the SA to the VU; (3) the
        // interaction's HBM write-back is approximated as a features×dim
        // tile rather than the features² pair matrix (a small byte-model
        // change, see the comment in `dlrm.rs`). Every shift is small in
        // absolute terms because DLRM's execution is dominated by the
        // latency-bound all-to-all (the paper's 98–99% ICI temporal
        // utilization, Figure 8), which no amount of gather overlap can
        // hide. LLM and diffusion rows are bit-identical to the pre-DAG
        // engine: their graphs are pure chains, and a chain's schedule is
        // unchanged under producer-set issue (verified exactly by
        // `dag_invariants::pure_chains_reproduce_the_pre_dag_engine`).
        row(Workload::dlrm(DlrmSize::Small), 8, 0.3753, 0.3770, 0.4241, 0.4323, 0.9184),
        row(Workload::dlrm(DlrmSize::Medium), 8, 0.3766, 0.3776, 0.4242, 0.4323, 0.9202),
        row(Workload::dlrm(DlrmSize::Large), 8, 0.3722, 0.3731, 0.4185, 0.4263, 0.9150),
        row(Workload::diffusion(DiffusionModel::DitXl), 4, 0.1483, 0.1622, 0.1851, 0.1861, 0.5270),
        row(Workload::diffusion(DiffusionModel::Gligen), 4, 0.1750, 0.1957, 0.2178, 0.2228, 0.5893),
    ]
}

fn assert_close(workload: &Workload, what: &str, got: f64, recorded: f64) {
    assert!(
        (got - recorded).abs() <= TOL,
        "{workload}: {what} drifted from golden value: got {got:.4}, recorded {recorded:.4} \
         (tolerance ±{TOL})"
    );
}

#[test]
fn energy_savings_match_recorded_golden_values() {
    let evaluator = Evaluator::new(NpuGeneration::D);
    for row in golden_rows() {
        let eval = evaluator.evaluate(&row.workload, row.chips);
        let w = &row.workload;
        assert_close(w, "ReGate-Base savings", eval.energy_savings(Design::ReGateBase), row.base);
        assert_close(w, "ReGate-HW savings", eval.energy_savings(Design::ReGateHw), row.hw);
        assert_close(w, "ReGate-Full savings", eval.energy_savings(Design::ReGateFull), row.full);
        assert_close(w, "Ideal savings", eval.energy_savings(Design::Ideal), row.ideal);
        assert_close(
            w,
            "NoPG static fraction",
            eval.design(Design::NoPg).energy.static_fraction(),
            row.static_fraction,
        );
    }
}

#[test]
fn design_points_are_ordered_base_hw_full_ideal() {
    // Structural invariant behind every golden row: adding mechanisms can
    // only add savings, and Ideal upper-bounds everything.
    let evaluator = Evaluator::new(NpuGeneration::D);
    for row in golden_rows() {
        let eval = evaluator.evaluate(&row.workload, row.chips);
        let base = eval.energy_savings(Design::ReGateBase);
        let hw = eval.energy_savings(Design::ReGateHw);
        let full = eval.energy_savings(Design::ReGateFull);
        let ideal = eval.energy_savings(Design::Ideal);
        let w = &row.workload;
        assert!(base <= hw + 1e-9, "{w}: Base {base} > HW {hw}");
        assert!(hw <= full + 1e-9, "{w}: HW {hw} > Full {full}");
        assert!(full <= ideal + 1e-9, "{w}: Full {full} > Ideal {ideal}");
        assert!(eval.energy_savings(Design::NoPg).abs() < 1e-12, "NoPG is the baseline");
    }
}

/// Folds the IEEE bits of one energy breakdown: every component's static
/// and total joules, then the out-of-duty-cycle idle leakage.
fn push_energy(digest: &mut Fnv1a, energy: &EnergyBreakdown) {
    for kind in ComponentKind::ALL {
        let component = energy.component(kind);
        digest.push(component.static_j.to_bits());
        digest.push(component.total_j().to_bits());
    }
    digest.push(energy.idle_static_j.to_bits());
}

/// Every policy kind the evaluator prices: the five presets, the extended
/// kinds and whole-chip gating.
fn every_policy_kind() -> Vec<PolicyKind> {
    Design::ALL
        .iter()
        .map(|&d| PolicyKind::Preset(d))
        .chain(PolicyKind::EXTENDED)
        .chain([PolicyKind::WholeChipFull])
        .collect()
}

/// Digest of every `evaluate_policies` row over one trace.
fn policies_digest(
    evaluator: &Evaluator,
    num_chips: usize,
    compiled: &CompiledGraph,
    simulation: &SimulationResult,
    duty_cycle: f64,
) -> u64 {
    let set = evaluator.evaluate_policies(
        num_chips,
        compiled,
        simulation,
        duty_cycle,
        &every_policy_kind(),
    );
    let mut digest = Fnv1a::new();
    digest.push(set.baseline_total_j.to_bits());
    for row in &set.rows {
        push_energy(&mut digest, &row.energy);
        digest.push(row.performance_overhead.to_bits());
        digest.push(row.peak_power_w.to_bits());
        digest.push(row.savings.to_bits());
    }
    digest.digest()
}

/// Digests of one Table 4 style deployment on NPU-D: its
/// `evaluate_compiled` design rows, then its `evaluate_policies` rows.
fn deployment_digests(workload: Workload, chips: usize) -> (u64, u64) {
    let evaluator = Evaluator::new(NpuGeneration::D);
    let chip = ChipConfig::new(NpuGeneration::D, chips);
    let parallelism =
        workload.default_parallelism(chip.spec(), chips).expect("corpus deployments fit");
    let compiled = Compiler::new(chip.spec().clone()).compile(&workload.build_graph(&parallelism));
    let simulation = Simulator::new(chip).run(&compiled);
    let policies = policies_digest(&evaluator, chips, &compiled, &simulation, NPU_DUTY_CYCLE);
    let eval = evaluator.evaluate_compiled(
        &workload,
        chips,
        parallelism,
        &compiled,
        simulation,
        NPU_DUTY_CYCLE,
    );
    let mut digest = Fnv1a::new();
    for design in Design::ALL {
        let row = eval.design(design);
        push_energy(&mut digest, &row.energy);
        digest.push(row.performance_overhead.to_bits());
        digest.push(row.peak_power_w.to_bits());
        digest.push(eval.energy_savings(design).to_bits());
    }
    (digest.digest(), policies)
}

/// Digests of one 16-request DLRM-S serving trace on one NPU-D chip: its
/// `ServingReport` rows, then its `evaluate_policies` rows.
fn serving_digests(policy: &BatchPolicy) -> (u64, u64) {
    let evaluator = Evaluator::new(NpuGeneration::D);
    let simulator =
        ServingSimulator::new(NpuGeneration::D, 1, Workload::dlrm(DlrmSize::Small).with_batch(32));
    let arrivals =
        ArrivalProcess::Poisson { mean_interval_cycles: 200_000.0, seed: 7 }.arrivals(16);
    let outcome = simulator.run(&arrivals, policy);
    let report = ServingReport::evaluate(&outcome, &evaluator);
    let mut digest = Fnv1a::new();
    for design in Design::ALL {
        let row = report.design(design);
        digest.push(row.total_j.to_bits());
        digest.push(row.energy_per_request_j.map_or(u64::MAX, f64::to_bits));
        digest.push(row.savings.to_bits());
    }
    digest.push(report.whole_chip_idle_fraction.to_bits());
    let policies = policies_digest(&evaluator, 1, &outcome.compiled, &outcome.simulation, 1.0);
    (digest.digest(), policies)
}

#[test]
fn pricing_outputs_match_recorded_digests_bit_for_bit() {
    // Recorded before the per-trace pricing profile replaced the per-kind
    // timeline walks; any reassociation of a pricing sum moves a digest.
    // (label, design-row or report digest, policy-row digest)
    let recorded: [(&str, u64, u64); 6] = [
        ("Llama3-8B Prefill x1", 0x313e_1be9_ae5b_1cf2, 0x1359_650c_0d45_3870),
        ("Llama3-8B Decode x1", 0xd72b_85ee_836e_30b4, 0xee49_2e40_0345_14fa),
        ("Llama3-8B Training x4", 0xe4fc_db44_a9aa_7fd8, 0x1576_737e_63aa_e1e2),
        ("DLRM-S x8", 0x5a3b_566c_5ece_4512, 0x8fac_b61c_d24d_268c),
        ("DLRM-S serving, static batch", 0x6dd0_6ba1_9799_9b12, 0xcb11_aa7a_e532_a825),
        ("DLRM-S serving, dynamic window", 0xdceb_fe3c_2d4a_168c, 0x4dc2_b763_18bc_04ef),
    ];
    let measured = [
        deployment_digests(Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill), 1),
        deployment_digests(Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode), 1),
        deployment_digests(Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Training), 4),
        deployment_digests(Workload::dlrm(DlrmSize::Small), 8),
        serving_digests(&BatchPolicy::Static { batch: 4 }),
        serving_digests(&BatchPolicy::DynamicWindow { max_batch: 4, max_wait_cycles: 300_000 }),
    ];
    let drifted: Vec<String> = recorded
        .iter()
        .zip(measured)
        .filter(|((_, rows, policies), got)| (*rows, *policies) != *got)
        .map(|((label, ..), (rows, policies))| {
            format!("{label}: rows {rows:#018x}, policies {policies:#018x}")
        })
        .collect();
    assert!(drifted.is_empty(), "pricing digests drifted:\n{}", drifted.join("\n"));
}
