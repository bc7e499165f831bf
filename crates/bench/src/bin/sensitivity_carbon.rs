//! Regenerates the sensitivity and carbon figures of §6.5–§6.6:
//! * Figure 21 — energy savings vs. gated-state leakage;
//! * Figure 22 — energy savings and overhead vs. wake-up delay scale;
//! * Figure 23 — savings across NPU generations A–E;
//! * Figure 24 — operational carbon reduction;
//! * Figure 25 — carbon vs. device lifespan.
//!
//! Run with `cargo run --release -p regate-bench --bin sensitivity_carbon`.

use npu_arch::NpuGeneration;
use npu_models::{DlrmSize, LlamaModel, LlmPhase, Workload};
use regate::experiments::{
    delay_sensitivity, generation_sweep, leakage_sensitivity, lifespan_sweep,
};
use regate::{Design, Evaluator};
use regate_bench::{infeasible, pct, section};

fn main() {
    // Representative workloads (the paper uses Llama3.1-405B, DLRM, DiT; we
    // default to deployments with modest chip counts for runtime).
    let decode = Workload::llm(LlamaModel::Llama3_70B, LlmPhase::Decode);
    let prefill = Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Prefill);
    let dlrm = Workload::dlrm(DlrmSize::Large);

    section("Figure 21: sensitivity to gated-state leakage (ReGate-Full savings)");
    for (workload, chips) in [(&decode, 8usize), (&prefill, 1), (&dlrm, 8)] {
        println!("{}:", workload.label());
        for row in leakage_sensitivity(workload, NpuGeneration::D, chips) {
            println!(
                "  leakage {:<18} Base {:>7}  HW {:>7}  Full {:>7}",
                row.setting,
                pct(row.savings[0].1),
                pct(row.savings[1].1),
                pct(row.savings[2].1)
            );
        }
    }

    section("Figure 22: sensitivity to power-gate & wake-up delay");
    for (workload, chips) in [(&decode, 8usize), (&dlrm, 8)] {
        println!("{}:", workload.label());
        for row in delay_sensitivity(workload, NpuGeneration::D, chips) {
            println!(
                "  delay {:<6} savings Base {:>7} / Full {:>7}   overhead Base {:>7} / Full {:>7}",
                row.setting,
                pct(row.savings[0].1),
                pct(row.savings[2].1),
                pct(row.overhead[0].1),
                pct(row.overhead[2].1)
            );
        }
    }

    section("Figure 23: energy savings across NPU generations");
    for (workload, chips) in [(&decode, 8usize), (&dlrm, 8)] {
        println!("{}:", workload.label());
        for (generation, savings) in generation_sweep(workload, chips) {
            let row = match savings {
                Ok(savings) => {
                    let parts: Vec<String> =
                        savings.iter().map(|(d, s)| format!("{d} {}", pct(*s))).collect();
                    parts.join("  ")
                }
                Err(report) => infeasible(&report),
            };
            println!("  {:<7} {row}", generation.to_string());
        }
    }

    section("Figure 24: operational carbon reduction (ReGate-Full)");
    for (workload, chips) in [(&decode, 8usize), (&prefill, 1), (&dlrm, 8)] {
        let eval = Evaluator::new(NpuGeneration::D).evaluate(workload, chips);
        println!(
            "{:<28} energy savings {:>7}   carbon reduction {:>7}",
            workload.label(),
            pct(eval.energy_savings(Design::ReGateFull)),
            pct(eval.operational_carbon_reduction(Design::ReGateFull))
        );
    }

    section("Figure 25: carbon vs device lifespan");
    for (workload, chips) in [(&decode, 8usize), (&dlrm, 8)] {
        let sweep = lifespan_sweep(workload, NpuGeneration::D, chips);
        println!(
            "{:<28} optimal lifespan: {} yr (NoPG) → {} yr (ReGate-Full)",
            workload.label(),
            sweep.nopg_optimal_years,
            sweep.regate_optimal_years
        );
        for (a, b) in sweep.nopg.iter().zip(sweep.regate.iter()) {
            println!(
                "  {:>2} yr  NoPG {:>12.6}  ReGate {:>12.6} kgCO2e/work",
                a.lifespan_years, a.carbon_kg_per_work, b.carbon_kg_per_work
            );
        }
    }
}
