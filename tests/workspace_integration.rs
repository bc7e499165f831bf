//! Workspace-level integration tests: the full pipeline (workload graph →
//! compiler → simulator → power model → ReGate evaluation) on a spread of
//! workloads and NPU generations.

use npu_arch::{ChipConfig, ComponentKind, NpuGeneration, ParallelismConfig};
use npu_compiler::Compiler;
use npu_models::{DiffusionModel, DlrmSize, LlamaModel, LlmPhase, Workload};
use npu_sim::Simulator;
use regate::{Design, Evaluator};

fn quick_diffusion(model: DiffusionModel) -> Workload {
    let mut wl = Workload::diffusion(model);
    if let Workload::Diffusion(ref mut cfg) = wl {
        cfg.steps = 2;
    }
    wl
}

#[test]
fn full_pipeline_runs_for_every_workload_class() {
    let workloads = [
        Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Training),
        Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Prefill),
        Workload::llm(LlamaModel::Llama3_70B, LlmPhase::Decode),
        Workload::dlrm(DlrmSize::Medium),
        quick_diffusion(DiffusionModel::DitXl),
        quick_diffusion(DiffusionModel::Gligen),
    ];
    let evaluator = Evaluator::new(NpuGeneration::D);
    for workload in workloads {
        let eval = evaluator.evaluate(&workload, 8);
        assert!(eval.design(Design::NoPg).energy.total_j() > 0.0, "{workload}: zero energy");
        for design in Design::GATED {
            let savings = eval.energy_savings(design);
            assert!(
                (0.0..0.8).contains(&savings),
                "{workload}/{design}: implausible savings {savings}"
            );
            assert!(eval.performance_overhead(design) < 0.06);
        }
    }
}

#[test]
fn pipeline_is_deterministic() {
    let workload = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode);
    let evaluator = Evaluator::new(NpuGeneration::D);
    let a = evaluator.evaluate(&workload, 1);
    let b = evaluator.evaluate(&workload, 1);
    assert_eq!(
        a.design(Design::ReGateFull).energy.total_j(),
        b.design(Design::ReGateFull).energy.total_j()
    );
    assert_eq!(a.simulation.total_cycles(), b.simulation.total_cycles());
}

#[test]
fn component_activity_is_consistent_across_crates() {
    // The simulator's activity, the compiler's anchors, and the evaluation's
    // energy breakdown must describe the same execution.
    let chip = ChipConfig::new(NpuGeneration::D, 1);
    let workload = Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Decode);
    let graph = workload.build_graph(&ParallelismConfig::single());
    let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
    let sim = Simulator::new(chip).run(&compiled);
    assert_eq!(sim.timings().len(), compiled.num_anchors());
    // Operator spans overlap on the global clock (prefetch of operator k+1
    // during compute of operator k), so their sum is an upper bound of the
    // makespan; the serial per-op sum bounds it from above as well.
    let span_sum: u64 = sim.schedule().iter().map(|s| s.span_cycles()).sum();
    assert!(span_sum >= sim.total_cycles());
    assert!(sim.total_cycles() <= sim.serial_cycles());
    for kind in ComponentKind::ALL {
        assert!(
            sim.activity().busy_cycles(kind) <= sim.total_cycles(),
            "{kind:?}: merged busy intervals cannot exceed the makespan"
        );
        assert_eq!(sim.activity().busy_cycles(kind), sim.busy_timeline().busy_cycles(kind));
    }
}

#[test]
fn multi_generation_evaluation_is_stable() {
    let workload = Workload::dlrm(DlrmSize::Small);
    for generation in NpuGeneration::ALL {
        let eval = Evaluator::new(generation).evaluate(&workload, 8);
        let full = eval.energy_savings(Design::ReGateFull);
        assert!(full > 0.05, "{generation}: DLRM savings {full} too small");
        assert!(full < 0.7, "{generation}: DLRM savings {full} too large");
    }
}

#[test]
fn larger_deployments_do_not_break_the_pipeline() {
    let workload = Workload::llm(LlamaModel::Llama3_405B, LlmPhase::Decode).with_batch(64);
    let eval = Evaluator::new(NpuGeneration::D).evaluate(&workload, 64);
    assert!(eval.parallelism.num_chips() == 64);
    assert!(eval.design(Design::NoPg).energy.total_j() > 0.0);
    assert!(eval.energy_savings(Design::ReGateFull) > 0.0);
}
