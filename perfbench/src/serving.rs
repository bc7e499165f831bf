//! `serve_steady` and `serve_churn`: each point serves one arrival trace
//! through `ServingSimulator::run` + `verify` + `ServingReport::evaluate`
//! + `evaluate_policies` on one of two single-chip deployments.
//!
//! `serve_steady` forms the same batch shape on every trace, so after
//! set-up every run hits the prepared-trace cache. `serve_churn` forms
//! batch-size sequences that almost never repeat, so every run misses it
//! (template concatenation + `Simulator::prepare`) while the per-size
//! batch templates hit.

use npu_arch::NpuGeneration;
use npu_models::{DlrmSize, LlamaModel, LlmPhase, Workload};
use npu_serving::{ArrivalProcess, BatchPolicy, ServingReport, ServingSimulator};
use regate::{Design, Evaluator, PolicyKind};

use crate::bench::{Bench, Counts, Point};
use crate::table4::policy_kinds;
use crate::trace::{Layer, Tracer};

/// Which serving path the workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Steady,
    Churn,
}

/// Largest batch `serve_churn`'s dynamic window closes with.
const CHURN_MAX_BATCH: usize = 8;

pub struct Serving {
    mode: Mode,
    simulators: [ServingSimulator; 2],
    evaluator: Evaluator,
    kinds: Vec<PolicyKind>,
}

/// The two deployments every serving point runs on: Llama3-8B decode
/// with two samples per request, and DLRM-S with 32.
fn deployments() -> [ServingSimulator; 2] {
    [
        ServingSimulator::new(
            NpuGeneration::D,
            1,
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode).with_batch(2),
        ),
        ServingSimulator::new(NpuGeneration::D, 1, Workload::dlrm(DlrmSize::Small).with_batch(32)),
    ]
}

/// Compiles every batch template the churn policy can form, by serving
/// one single-batch trace of each size.
fn warm_templates(simulators: &[ServingSimulator; 2]) {
    for simulator in simulators {
        for size in 1..=CHURN_MAX_BATCH {
            let outcome = simulator.run(&vec![0; size], &BatchPolicy::Static { batch: size });
            std::hint::black_box(outcome.makespan_cycles());
        }
    }
}

impl Serving {
    pub fn new(mode: Mode) -> Self {
        let simulators = deployments();
        if mode == Mode::Churn {
            warm_templates(&simulators);
        }
        Serving {
            mode,
            simulators,
            evaluator: Evaluator::new(NpuGeneration::D),
            kinds: policy_kinds(),
        }
    }

    /// The arrival trace and batching policy of one slot.
    fn trace(&self, variant: usize, seed: u64) -> (Vec<u64>, BatchPolicy) {
        match self.mode {
            Mode::Steady => {
                let process = if variant == 0 {
                    ArrivalProcess::Poisson { mean_interval_cycles: 100_000.0, seed }
                } else {
                    ArrivalProcess::BurstyOnOff {
                        burst_len: 4,
                        intra_burst_cycles: 5_000,
                        off_cycles: 2_000_000,
                    }
                };
                (process.arrivals(64), BatchPolicy::Static { batch: 4 })
            }
            Mode::Churn => {
                let mean = if variant == 0 { 100_000.0 } else { 1_000_000.0 };
                let process = ArrivalProcess::Poisson { mean_interval_cycles: mean, seed };
                let policy = BatchPolicy::DynamicWindow {
                    max_batch: CHURN_MAX_BATCH,
                    max_wait_cycles: 50_000,
                };
                (process.arrivals(256), policy)
            }
        }
    }
}

/// The (deployment, arrival variant) of each slot of a round: both
/// variants on both deployments, with decode weighted twice so the median
/// point falls inside the decode cluster instead of on the boundary
/// between the two deployments' point times.
const SLOTS: [(usize, usize); 6] = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 0), (0, 1)];

impl Bench for Serving {
    fn round_len(&self) -> usize {
        SLOTS.len()
    }

    fn point(&mut self, slot: usize, seed: u64, tr: &mut Tracer) -> Point {
        let (deployment, variant) = SLOTS[slot];
        let (arrivals, policy) = self.trace(variant, seed);
        let simulator = &self.simulators[deployment];

        let before = simulator.cache_counters();
        let outcome = tr.span(Layer::ServingRun, || simulator.run(&arrivals, &policy));
        let after = simulator.cache_counters();
        let verdict = tr.span(Layer::Analysis, || simulator.verify(&outcome));
        let evaluator = &self.evaluator;
        let report = tr.span(Layer::ServingReport, || ServingReport::evaluate(&outcome, evaluator));
        let kinds = &self.kinds;
        let policies = tr.span(Layer::CorePolicies, || {
            evaluator.evaluate_policies(
                outcome.num_chips,
                &outcome.compiled,
                &outcome.simulation,
                1.0,
                kinds,
            )
        });

        let makespan = outcome.makespan_cycles();
        let full_savings = report.design(Design::ReGateFull).savings;
        let in_window = verdict.makespan_window.is_some_and(|w| w.contains(makespan));
        let all_served =
            outcome.requests.len() == arrivals.len() && report.num_requests == arrivals.len();
        let presets_agree =
            policies.row(PolicyKind::Preset(Design::ReGateFull)).savings == full_savings;
        let counters = outcome.simulation.counters();
        Point {
            ok: verdict.is_schedulable() && in_window && all_served && presets_agree,
            makespan_cycles: makespan,
            full_savings,
            p99_latency_cycles: report.p99_latency_cycles,
            counts: Counts {
                anchors_replayed: outcome.compiled.num_anchors() as u64,
                events_popped: counters.events_popped,
                heap_peak: counters.heap_peak,
                trace_hits: after.trace_hits - before.trace_hits,
                trace_misses: after.trace_misses - before.trace_misses,
                batch_hits: after.batch_hits - before.batch_hits,
                batch_misses: after.batch_misses - before.batch_misses,
                ..Counts::default()
            },
        }
    }

    /// Every churn trace adds a prepared trace to the simulator's cache
    /// and nothing evicts it, so after each round the churn workload swaps
    /// in fresh simulators with pre-compiled batch templates, keeping
    /// memory flat over a run of any length.
    fn between_rounds(&mut self) {
        if self.mode == Mode::Churn {
            self.simulators = deployments();
            warm_templates(&self.simulators);
        }
    }
}
