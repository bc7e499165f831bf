//! LLM inference energy study: compares prefill and decode across NPU
//! generations and shows where ReGate's savings come from per component.
//!
//! Run with `cargo run --release -p regate-bench --example llm_inference_energy`.

use npu_arch::NpuGeneration;
use npu_models::{LlamaModel, LlmPhase, Workload};
use regate::{Design, Evaluator};
use regate_bench::infeasible;

fn main() {
    let model = LlamaModel::Llama3_70B;
    for phase in [LlmPhase::Prefill, LlmPhase::Decode] {
        let workload = Workload::llm(model, phase);
        println!("=== {} {} ===", model.name(), phase);
        println!(
            "{:<8} {:>6} {:>14} {:>10} {:>10} {:>10} {:>10}",
            "NPU", "chips", "J/token", "SA util", "HBM util", "Full save", "Ideal save"
        );
        for generation in NpuGeneration::DEPLOYED {
            let chips = 8;
            let eval = match Evaluator::new(generation).try_evaluate(&workload, chips) {
                Ok(eval) => eval,
                Err(report) => {
                    println!("{:<8} {:>6} {}", generation.to_string(), chips, infeasible(&report));
                    continue;
                }
            };
            let activity = eval.simulation.activity();
            println!(
                "{:<8} {:>6} {:>14.4} {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}%",
                generation.to_string(),
                chips,
                eval.energy_per_work(Design::NoPg),
                activity.temporal_utilization(npu_arch::ComponentKind::Sa) * 100.0,
                activity.temporal_utilization(npu_arch::ComponentKind::Hbm) * 100.0,
                eval.energy_savings(Design::ReGateFull) * 100.0,
                eval.energy_savings(Design::Ideal) * 100.0,
            );
        }
        // Per-component saving breakdown on NPU-D.
        let title = "ReGate-Full savings breakdown on NPU-D:";
        match Evaluator::new(NpuGeneration::D).try_evaluate(&workload, 8) {
            Ok(eval) => {
                println!("{title}");
                for (component, saving) in eval.savings_breakdown(Design::ReGateFull) {
                    if saving.abs() > 1e-4 {
                        println!(
                            "  {:<6} {:>6.2}% of total energy",
                            component.label(),
                            saving * 100.0
                        );
                    }
                }
            }
            Err(report) => println!("{title} {}", infeasible(&report)),
        }
        println!();
    }
}
