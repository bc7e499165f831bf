//! `table4`: each point takes one feasible Table 4 deployment through
//! build → compile → analyze → prepare → replay → `evaluate_compiled` →
//! `evaluate_policies`, caching nothing across points.

use npu_arch::{ChipConfig, NpuGeneration};
use npu_compiler::Compiler;
use npu_models::{EvalConfig, LlamaModel, LlmPhase};
use npu_power::NPU_DUTY_CYCLE;
use npu_sim::{analysis, EngineScratch, Simulator};
use regate::{Design, Evaluator, PolicyKind};

use crate::bench::{Bench, Counts, Point};
use crate::trace::{Layer, Tracer};

/// The five design presets followed by every extended policy.
pub fn policy_kinds() -> Vec<PolicyKind> {
    Design::ALL.iter().map(|&d| PolicyKind::Preset(d)).chain(PolicyKind::EXTENDED).collect()
}

pub struct Table4 {
    /// The 16 feasible rows: Table 4 minus Llama3.1-405B Decode on 64
    /// chips, which no parallelism fits.
    configs: Vec<EvalConfig>,
    /// Rows of Table 4 with no feasible parallelism, as measured.
    infeasible: u64,
    evaluator: Evaluator,
    kinds: Vec<PolicyKind>,
    scratch: EngineScratch,
}

impl Table4 {
    pub fn new() -> Self {
        let excluded = EvalConfig::llm(LlamaModel::Llama3_405B, LlmPhase::Decode);
        let all = EvalConfig::all();
        let infeasible = all
            .iter()
            .filter(|c| {
                let chip = ChipConfig::new(NpuGeneration::D, c.num_chips);
                c.workload.default_parallelism(chip.spec(), c.num_chips).is_none()
            })
            .count() as u64;
        Table4 {
            configs: all.into_iter().filter(|c| *c != excluded).collect(),
            infeasible,
            evaluator: Evaluator::new(NpuGeneration::D),
            kinds: policy_kinds(),
            scratch: EngineScratch::default(),
        }
    }
}

impl Bench for Table4 {
    fn round_len(&self) -> usize {
        self.configs.len()
    }

    fn infeasible_configs(&self) -> u64 {
        self.infeasible
    }

    fn point(&mut self, slot: usize, _seed: u64, tr: &mut Tracer) -> Point {
        let config = self.configs[slot];
        let chips = config.num_chips;
        let chip = ChipConfig::new(NpuGeneration::D, chips);
        let built = tr.span(Layer::ModelsBuild, || {
            let parallelism = config.workload.default_parallelism(chip.spec(), chips)?;
            Some((parallelism, config.workload.build_graph(&parallelism)))
        });
        let Some((parallelism, graph)) = built else {
            return Point::default();
        };
        let compiled =
            tr.span(Layer::CompilerCompile, || Compiler::new(chip.spec().clone()).compile(&graph));
        let gating = self.evaluator.gating();
        let deployment = tr.span(Layer::Analysis, || {
            analysis::analyze_deployment(&compiled, chip.spec(), Some(gating))
        });
        let prepared =
            tr.span(Layer::SimPrepare, || Simulator::new(chip.clone()).prepare(&compiled));
        let scratch = &mut self.scratch;
        let simulation = tr.span(Layer::SimReplay, || prepared.run_with_scratch(&[], scratch));
        let makespan = simulation.total_cycles();
        let window = tr.span(Layer::Analysis, || prepared.analyze(&[], Some(makespan)));
        let counters = simulation.counters();
        let anchors = compiled.num_anchors() as u64;
        let counts = Counts {
            anchors_compiled: anchors,
            anchors_replayed: anchors,
            events_popped: counters.events_popped,
            heap_peak: counters.heap_peak,
            ..Counts::default()
        };

        let evaluator = &self.evaluator;
        let evaluation = tr.span(Layer::CoreEvaluate, || {
            evaluator.evaluate_compiled(
                &config.workload,
                chips,
                parallelism,
                &compiled,
                simulation,
                NPU_DUTY_CYCLE,
            )
        });
        let kinds = &self.kinds;
        let policies = tr.span(Layer::CorePolicies, || {
            evaluator.evaluate_policies(
                chips,
                &compiled,
                &evaluation.simulation,
                NPU_DUTY_CYCLE,
                kinds,
            )
        });
        let full_savings = evaluation.energy_savings(Design::ReGateFull);

        let in_window = window.makespan_window.is_some_and(|w| w.contains(makespan));
        // The preset row of the policy walk must reproduce the design row
        // bit for bit.
        let presets_agree =
            policies.row(PolicyKind::Preset(Design::ReGateFull)).savings == full_savings;
        Point {
            ok: deployment.is_schedulable()
                && window.is_schedulable()
                && in_window
                && presets_agree,
            makespan_cycles: makespan,
            full_savings,
            p99_latency_cycles: makespan,
            counts,
        }
    }
}
