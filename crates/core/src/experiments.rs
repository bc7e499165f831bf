//! Experiment drivers that regenerate the data behind every table and
//! figure of the paper (§3 characterization and §6 evaluation).
//!
//! Each function returns plain rows of numbers; the `regate-bench` harness
//! binaries print them in the same layout as the paper's figures, and the
//! integration tests assert the headline claims on them.

use serde::{Deserialize, Serialize};

use npu_arch::{ComponentKind, NpuGeneration};
use npu_compiler::instrument::{instrument_vu, SetPmPolicy};
use npu_compiler::vliw::{expand_operator, ExpansionLimits};
use npu_compiler::Compiler;
use npu_models::{EvalConfig, Workload};
use npu_power::{CarbonModel, GatingParams, LeakageRatios, LifespanPoint};
use npu_sim::AnalysisReport;

use crate::designs::Design;
use crate::evaluate::{Evaluator, WorkloadEvaluation};

/// One row of the characterization study (Figures 2–9): a workload on a
/// given NPU generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationRow {
    /// Workload label.
    pub workload: String,
    /// Workload group (figure column).
    pub group: String,
    /// NPU generation.
    pub generation: NpuGeneration,
    /// Number of chips used.
    pub num_chips: usize,
    /// Energy per unit of work without power gating (Figure 2).
    pub energy_per_work_j: f64,
    /// Unit of work label ("Iter", "Token", "Request", "Image").
    pub work_unit: String,
    /// Fraction of busy energy that is static (Figure 3).
    pub static_fraction: f64,
    /// Per-component share of total busy energy (Figure 3), in the order
    /// SA/VU/SRAM/ICI/HBM/Other (static, dynamic) pairs.
    pub component_energy_shares: Vec<(String, f64, f64)>,
    /// SA temporal utilization (Figure 4).
    pub sa_temporal_util: f64,
    /// SA spatial utilization (Figure 5).
    pub sa_spatial_util: f64,
    /// VU temporal utilization (Figure 6).
    pub vu_temporal_util: f64,
    /// ICI temporal utilization (Figure 8).
    pub ici_temporal_util: f64,
    /// HBM temporal utilization (Figure 9).
    pub hbm_temporal_util: f64,
    /// Execution-time-weighted SRAM demand percentiles in MiB
    /// (50th, 90th, 99th) — Figure 7.
    pub sram_demand_p50_p90_p99_mib: (f64, f64, f64),
}

/// Runs the characterization for one workload on one generation.
#[must_use]
pub fn characterize(
    workload: &Workload,
    generation: NpuGeneration,
    num_chips: usize,
) -> CharacterizationRow {
    let evaluator = Evaluator::new(generation);
    let eval = evaluator.evaluate(workload, num_chips);
    characterization_row(workload, &eval)
}

fn characterization_row(workload: &Workload, eval: &WorkloadEvaluation) -> CharacterizationRow {
    let nopg = &eval.design(Design::NoPg).energy;
    let activity = eval.simulation.activity();
    let shares: Vec<(String, f64, f64)> = ComponentKind::ALL
        .iter()
        .map(|&k| {
            let c = nopg.component(k);
            let total = nopg.total_j().max(1e-30);
            (k.label().to_string(), c.static_j / total, c.dynamic_j / total)
        })
        .collect();
    CharacterizationRow {
        workload: workload.label(),
        group: workload.group().to_string(),
        generation: eval.generation,
        num_chips: eval.num_chips,
        energy_per_work_j: eval.energy_per_work(Design::NoPg),
        work_unit: workload.work_unit().label().to_string(),
        static_fraction: nopg.static_fraction(),
        component_energy_shares: shares,
        sa_temporal_util: activity.temporal_utilization(ComponentKind::Sa),
        sa_spatial_util: activity.sa_spatial_utilization(),
        vu_temporal_util: activity.temporal_utilization(ComponentKind::Vu),
        ici_temporal_util: activity.temporal_utilization(ComponentKind::Ici),
        hbm_temporal_util: activity.temporal_utilization(ComponentKind::Hbm),
        sram_demand_p50_p90_p99_mib: (
            eval.simulation.sram_demand_percentile_mib(50.0),
            eval.simulation.sram_demand_percentile_mib(90.0),
            eval.simulation.sram_demand_percentile_mib(99.0),
        ),
    }
}

/// One row of the evaluation figures (17–19): one workload with the savings
/// and overheads of every design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluationRow {
    /// Workload label.
    pub workload: String,
    /// NPU generation.
    pub generation: NpuGeneration,
    /// Number of chips.
    pub num_chips: usize,
    /// Energy savings vs `NoPG` per design (Base, HW, Full, Ideal) — Fig. 17.
    pub energy_savings: Vec<(String, f64)>,
    /// Per-component savings breakdown of `ReGate-Full` — Fig. 17 stacking.
    pub full_savings_breakdown: Vec<(String, f64)>,
    /// Average power per chip per design (NoPG first) — Fig. 18.
    pub average_power_w: Vec<(String, f64)>,
    /// Peak power per chip per design — Fig. 18.
    pub peak_power_w: Vec<(String, f64)>,
    /// Performance overhead per design (Base, HW, Full) — Fig. 19.
    pub performance_overhead: Vec<(String, f64)>,
    /// Operational carbon reduction of each design — Fig. 24.
    pub carbon_reduction: Vec<(String, f64)>,
}

/// Evaluates one Table 4 deployment and produces its evaluation row.
#[must_use]
pub fn evaluate_config(config: &EvalConfig, generation: NpuGeneration) -> EvaluationRow {
    let evaluator = Evaluator::new(generation);
    let eval = evaluator.evaluate(&config.workload, config.num_chips);
    evaluation_row(&eval)
}

fn evaluation_row(eval: &WorkloadEvaluation) -> EvaluationRow {
    let designs = [Design::ReGateBase, Design::ReGateHw, Design::ReGateFull, Design::Ideal];
    EvaluationRow {
        workload: eval.workload.label(),
        generation: eval.generation,
        num_chips: eval.num_chips,
        energy_savings: designs
            .iter()
            .map(|&d| (d.label().to_string(), eval.energy_savings(d)))
            .collect(),
        full_savings_breakdown: eval
            .savings_breakdown(Design::ReGateFull)
            .into_iter()
            .map(|(k, v)| (k.label().to_string(), v))
            .collect(),
        average_power_w: Design::ALL
            .iter()
            .map(|&d| (d.label().to_string(), eval.average_power_w(d)))
            .collect(),
        peak_power_w: Design::ALL
            .iter()
            .map(|&d| (d.label().to_string(), eval.peak_power_w(d)))
            .collect(),
        performance_overhead: [Design::ReGateBase, Design::ReGateHw, Design::ReGateFull]
            .iter()
            .map(|&d| (d.label().to_string(), eval.performance_overhead(d)))
            .collect(),
        carbon_reduction: designs
            .iter()
            .map(|&d| (d.label().to_string(), eval.operational_carbon_reduction(d)))
            .collect(),
    }
}

/// Runs the full workload × design × generation evaluation sweep with one
/// worker thread per workload (`std::thread::scope`). Each worker
/// compiles, simulates, and evaluates its workload on every requested
/// generation across all design points; the result rows come back in
/// `configs × generations` order, identical to the serial sweep.
///
/// The sweep is embarrassingly parallel across workloads (each owns its
/// graph, compiled stream, and timeline), which is what makes the Table 4
/// scale tractable on a laptop.
///
/// # Panics
///
/// Panics if a worker thread panics (the underlying evaluation failed).
#[must_use]
pub fn parallel_evaluation_sweep(
    configs: &[EvalConfig],
    generations: &[NpuGeneration],
) -> Vec<Vec<EvaluationRow>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = configs
            .iter()
            .map(|config| {
                scope.spawn(move || {
                    generations
                        .iter()
                        .map(|&generation| evaluate_config(config, generation))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sweep worker panicked")).collect()
    })
}

/// Figure 20: `setpm` instructions per 1,000 cycles for a workload, derived
/// by expanding a sample of its compiled operators into VLIW schedules and
/// running the instrumentation pass over them.
#[must_use]
pub fn setpm_rate(
    workload: &Workload,
    generation: NpuGeneration,
    num_chips: usize,
    sample: usize,
) -> f64 {
    let spec = npu_arch::NpuSpec::generation(generation);
    let chip = npu_arch::ChipConfig::new(generation, num_chips);
    let parallelism = workload
        .default_parallelism(&spec, num_chips)
        .unwrap_or_else(|| npu_arch::ParallelismConfig::new(num_chips, 1, 1));
    let graph = workload.build_graph(&parallelism);
    let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
    let policy = SetPmPolicy::new(GatingParams::default().vu_bet, GatingParams::default().vu_delay);
    let mut setpms = 0usize;
    let mut cycles = 0u64;
    for op in compiled.anchors().take(sample) {
        let (program, _) = expand_operator(op, &spec, ExpansionLimits { max_tiles: 16 });
        let result = instrument_vu(&program, policy);
        setpms += result.setpm_inserted;
        cycles += result.program.issue_cycles();
    }
    if cycles == 0 {
        0.0
    } else {
        setpms as f64 * 1000.0 / cycles as f64
    }
}

/// Figure 21/22 sensitivity rows: energy savings of each design under a
/// modified set of gating parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityRow {
    /// Label of the swept setting (leakage ratios or delay factor).
    pub setting: String,
    /// Savings per design (Base, HW, Full).
    pub savings: Vec<(String, f64)>,
    /// Performance overhead per design (Base, HW, Full).
    pub overhead: Vec<(String, f64)>,
}

/// Sweeps the gated-state leakage ratios (Figure 21).
#[must_use]
pub fn leakage_sensitivity(
    workload: &Workload,
    generation: NpuGeneration,
    num_chips: usize,
) -> Vec<SensitivityRow> {
    LeakageRatios::sensitivity_sweep()
        .into_iter()
        .map(|ratios| {
            let params = GatingParams::default().with_leakage(ratios);
            sensitivity_row(workload, generation, num_chips, ratios.label(), params)
        })
        .collect()
}

/// Sweeps the power-gate/wake-up delay scale (Figure 22).
#[must_use]
pub fn delay_sensitivity(
    workload: &Workload,
    generation: NpuGeneration,
    num_chips: usize,
) -> Vec<SensitivityRow> {
    [1.0, 1.5, 2.0, 3.0, 4.0]
        .into_iter()
        .map(|factor| {
            let params = GatingParams::default().with_delay_scale(factor);
            sensitivity_row(workload, generation, num_chips, format!("{factor}x"), params)
        })
        .collect()
}

fn sensitivity_row(
    workload: &Workload,
    generation: NpuGeneration,
    num_chips: usize,
    setting: String,
    params: GatingParams,
) -> SensitivityRow {
    let eval = Evaluator::with_gating(generation, params).evaluate(workload, num_chips);
    let designs = [Design::ReGateBase, Design::ReGateHw, Design::ReGateFull];
    SensitivityRow {
        setting,
        savings: designs.iter().map(|&d| (d.label().to_string(), eval.energy_savings(d))).collect(),
        overhead: designs
            .iter()
            .map(|&d| (d.label().to_string(), eval.performance_overhead(d)))
            .collect(),
    }
}

/// One generation's Figure 23 row: each design's energy savings, or the
/// analyzer's denial when no parallelism fits the deployment on that
/// generation (an older chip's smaller HBM).
pub type GenerationSavings = Result<Vec<(String, f64)>, AnalysisReport>;

/// Figure 23: energy savings of each design on every NPU generation.
#[must_use]
pub fn generation_sweep(
    workload: &Workload,
    num_chips: usize,
) -> Vec<(NpuGeneration, GenerationSavings)> {
    NpuGeneration::ALL
        .iter()
        .map(|&generation| {
            let savings =
                Evaluator::new(generation).try_evaluate(workload, num_chips).map(|eval| {
                    [Design::ReGateBase, Design::ReGateHw, Design::ReGateFull, Design::Ideal]
                        .iter()
                        .map(|&d| (d.label().to_string(), eval.energy_savings(d)))
                        .collect()
                });
            (generation, savings)
        })
        .collect()
}

/// Figure 25: carbon per unit of work versus device lifespan, with and
/// without ReGate-Full.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifespanSweep {
    /// Sweep without power gating.
    pub nopg: Vec<LifespanPoint>,
    /// Sweep with ReGate-Full.
    pub regate: Vec<LifespanPoint>,
    /// Optimal lifespan (years) without power gating.
    pub nopg_optimal_years: u32,
    /// Optimal lifespan (years) with ReGate-Full.
    pub regate_optimal_years: u32,
}

/// Runs the lifespan sweep for one workload deployment.
#[must_use]
pub fn lifespan_sweep(
    workload: &Workload,
    generation: NpuGeneration,
    num_chips: usize,
) -> LifespanSweep {
    let evaluator = Evaluator::new(generation);
    let eval = evaluator.evaluate(workload, num_chips);
    let carbon = CarbonModel::default();
    let seconds_per_batch =
        eval.design(Design::NoPg).energy.busy_seconds / npu_power::NPU_DUTY_CYCLE;
    let work_per_chip_year = if seconds_per_batch > 0.0 {
        eval.work_items / eval.num_chips as f64 * (365.25 * 86400.0) / seconds_per_batch
    } else {
        0.0
    };
    // Yearly efficiency gain: the NPU-D over NPU-C improvement annualized
    // over their three-year deployment gap (the paper's Figure 25 setup).
    let yearly_gain = 1.18;
    let embodied = CarbonModel::embodied_kg_per_chip(generation);
    let nopg_energy = eval.design(Design::NoPg).energy.facility_j() * eval.num_chips as f64
        / eval.work_items.max(1.0);
    let full_energy = eval.design(Design::ReGateFull).energy.facility_j() * eval.num_chips as f64
        / eval.work_items.max(1.0);
    let nopg = carbon.lifespan_sweep(nopg_energy, work_per_chip_year, embodied, yearly_gain, 10);
    let regate = carbon.lifespan_sweep(full_energy, work_per_chip_year, embodied, yearly_gain, 10);
    LifespanSweep {
        nopg_optimal_years: CarbonModel::optimal_lifespan(&nopg),
        regate_optimal_years: CarbonModel::optimal_lifespan(&regate),
        nopg,
        regate,
    }
}

/// Chooses, among a set of candidate chip counts, the most energy-efficient
/// configuration that meets the latency SLO (the Table 4 search, simplified
/// to chip count with the workload's default batch).
#[must_use]
pub fn best_config(
    workload: &Workload,
    generation: NpuGeneration,
    candidate_chips: &[usize],
    slo_seconds: f64,
) -> Option<(usize, f64)> {
    let evaluator = Evaluator::new(generation);
    let mut best: Option<(usize, f64)> = None;
    for &chips in candidate_chips {
        let spec = npu_arch::NpuSpec::generation(generation);
        if workload.default_parallelism(&spec, chips).is_none() {
            continue;
        }
        let eval = evaluator.evaluate(workload, chips);
        let latency = eval.design(Design::NoPg).energy.busy_seconds;
        if latency > slo_seconds {
            continue;
        }
        let energy = eval.energy_per_work(Design::NoPg);
        if best.is_none_or(|(_, e)| energy < e) {
            best = Some((chips, energy));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_models::{DlrmSize, LlamaModel, LlmPhase};

    #[test]
    fn characterization_row_has_expected_shape() {
        let row = characterize(
            &Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode),
            NpuGeneration::D,
            1,
        );
        assert_eq!(row.work_unit, "Token");
        assert!(row.energy_per_work_j > 0.0);
        assert!((0.0..=1.0).contains(&row.static_fraction));
        assert!(row.hbm_temporal_util > 0.8, "decode HBM util {}", row.hbm_temporal_util);
        assert!(row.sa_temporal_util < 0.3);
        assert_eq!(row.component_energy_shares.len(), ComponentKind::ALL.len());
        let share_sum: f64 = row.component_energy_shares.iter().map(|(_, s, d)| s + d).sum();
        assert!((share_sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn evaluation_row_orders_designs() {
        let cfg = EvalConfig::dlrm(DlrmSize::Small);
        let row = evaluate_config(&cfg, NpuGeneration::D);
        assert_eq!(row.energy_savings.len(), 4);
        let full = row.energy_savings[2].1;
        let ideal = row.energy_savings[3].1;
        assert!(ideal >= full);
        assert!(row.average_power_w[0].1 >= row.average_power_w[3].1, "NoPG power >= Full power");
        assert!(row.performance_overhead.iter().all(|(_, o)| *o < 0.06));
    }

    #[test]
    fn setpm_rate_is_below_structural_bound() {
        let rate = setpm_rate(
            &Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill),
            NpuGeneration::D,
            1,
            24,
        );
        assert!(rate >= 0.0);
        assert!(rate < 2.0 * 1000.0 / 32.0, "setpm rate {rate} exceeds the Figure 20 bound");
    }

    #[test]
    fn parallel_sweep_matches_serial_evaluation() {
        let configs = [
            EvalConfig::llm(LlamaModel::Llama3_8B, LlmPhase::Decode),
            EvalConfig::dlrm(DlrmSize::Small),
        ];
        let generations = [NpuGeneration::C, NpuGeneration::D];
        let parallel = parallel_evaluation_sweep(&configs, &generations);
        assert_eq!(parallel.len(), configs.len());
        for (config, rows) in configs.iter().zip(&parallel) {
            assert_eq!(rows.len(), generations.len());
            for (&generation, row) in generations.iter().zip(rows) {
                let serial = evaluate_config(config, generation);
                assert_eq!(row, &serial, "{config}: parallel row diverges from serial");
            }
        }
    }

    #[test]
    fn leakage_sweep_is_monotone() {
        let rows = leakage_sensitivity(
            &Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode),
            NpuGeneration::D,
            1,
        );
        assert_eq!(rows.len(), 5);
        let full_first = rows.first().unwrap().savings[2].1;
        let full_last = rows.last().unwrap().savings[2].1;
        assert!(full_first > full_last, "leakier gating saves less");
        assert!(full_last > 0.0, "even the leaky corner still saves energy");
    }

    #[test]
    fn generation_sweep_covers_all_generations() {
        let rows = generation_sweep(&Workload::dlrm(DlrmSize::Large), 8);
        assert_eq!(rows.len(), 5);
        for (generation, savings) in &rows {
            let savings = savings.as_ref().expect("DLRM-L fits 8 chips of every generation");
            assert!(savings.iter().all(|(_, s)| *s > 0.0), "{generation}");
        }
    }

    #[test]
    fn generation_sweep_reports_infeasible_generations_instead_of_panicking() {
        // Llama3-70B decode outgrows the HBM of 8 NPU-A chips: that row
        // comes back as a denial, NPU-D's as savings.
        let rows = generation_sweep(&Workload::llm(LlamaModel::Llama3_70B, LlmPhase::Decode), 8);
        assert_eq!(rows.len(), 5);
        assert!(rows
            .iter()
            .any(|(_, savings)| savings.as_ref().is_err_and(|report| !report.is_schedulable())));
        let npu_d = rows.iter().find(|(generation, _)| *generation == NpuGeneration::D);
        assert!(npu_d.is_some_and(|(_, savings)| savings.is_ok()));
    }

    #[test]
    fn lifespan_sweep_extends_with_regate() {
        let sweep = lifespan_sweep(
            &Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode),
            NpuGeneration::D,
            1,
        );
        assert_eq!(sweep.nopg.len(), 10);
        assert_eq!(sweep.regate.len(), 10);
        assert!(sweep.regate_optimal_years >= sweep.nopg_optimal_years);
        assert!(sweep.nopg_optimal_years >= 1);
    }

    #[test]
    fn best_config_prefers_fewer_chips_when_slo_is_loose() {
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode);
        let best = best_config(&wl, NpuGeneration::D, &[1, 2, 4], f64::INFINITY);
        let (chips, _) = best.expect("some configuration is feasible");
        assert_eq!(chips, 1, "with no SLO pressure the smallest deployment is most efficient");
    }
}
