//! Per-request latency and energy accounting over a serving trace.
//!
//! A [`ServingReport`] condenses one [`ServingOutcome`] into the numbers a
//! load sweep tabulates: latency percentiles, the queueing/service split,
//! the measured duty cycle, and — by handing the scheduled trace to the
//! unmodified interval-walking evaluator — energy per request and savings
//! for every ReGate design. The evaluator runs with `duty_cycle = 1.0`:
//! the trace *contains* its inter-request idleness, so the paper's scalar
//! out-of-duty-cycle term is replaced by measured gaps (and
//! [`ServingReport::measured_duty_cycle`] is the cross-check against the
//! fleet-average constant the single-batch path assumes).

use std::collections::BTreeMap;

use npu_power::GatingParams;
use npu_sim::RunCounters;
use regate::policy::TIMELINE_UNITS;
use regate::{Design, Evaluator, PolicyKind};
use serde::{Deserialize, Serialize};

use crate::simulator::ServingOutcome;

/// Energy accounting of one design over the whole serving trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignServingRow {
    /// Per-chip energy over the trace (busy energy; the trace's idle gaps
    /// are priced inside it by the interval walk), in joules.
    pub total_j: f64,
    /// Deployment energy per served request, in joules. `None` when the
    /// trace served zero requests — the whole-trace energy is not a
    /// per-request figure, so an empty trace reports no value rather
    /// than a misleading one.
    pub energy_per_request_j: Option<f64>,
    /// Energy savings relative to `NoPG` over the same trace.
    pub savings: f64,
}

/// Latency/energy summary of one serving run.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Requests served.
    pub num_requests: usize,
    /// Batches dispatched.
    pub num_batches: usize,
    /// Trace makespan in cycles.
    pub makespan_cycles: u64,
    /// Median arrival-to-completion latency in cycles.
    pub p50_latency_cycles: u64,
    /// 99th-percentile arrival-to-completion latency in cycles.
    pub p99_latency_cycles: u64,
    /// Mean cycles a request waited for its batch to close.
    pub mean_queueing_cycles: f64,
    /// Mean cycles from batch dispatch to completion.
    pub mean_service_cycles: f64,
    /// Fraction of the makespan with at least one real component busy.
    pub measured_duty_cycle: f64,
    /// Fraction of the makespan inside whole-chip idle intervals (no
    /// component busy) at least as long as the chip-level break-even time
    /// — the share of the trace whole-chip gating could power off
    /// entirely, uncore included.
    pub whole_chip_idle_fraction: f64,
    /// Per-design energy rows.
    pub designs: BTreeMap<Design, DesignServingRow>,
    /// Engine run counters of the scheduled trace (events popped, heap
    /// peak, release-clamp stalls, …).
    pub engine_counters: RunCounters,
}

impl ServingReport {
    /// Evaluates a serving outcome across every design point.
    #[must_use]
    pub fn evaluate(outcome: &ServingOutcome, evaluator: &Evaluator) -> Self {
        // The design presets priced on the borrowed trace: their rows are
        // the `evaluate_compiled` design rows bit for bit.
        let presets = Design::ALL.map(PolicyKind::Preset);
        let priced = evaluator.evaluate_policies(
            outcome.num_chips,
            &outcome.compiled,
            &outcome.simulation,
            // The trace holds its own idleness; see the module docs.
            1.0,
            &presets,
        );
        let num_requests = outcome.requests.len();
        let mut designs = BTreeMap::new();
        for (design, row) in Design::ALL.into_iter().zip(&priced.rows) {
            let total_j = row.energy.total_j();
            designs.insert(
                design,
                DesignServingRow {
                    total_j,
                    energy_per_request_j: (num_requests > 0)
                        .then(|| total_j * outcome.num_chips as f64 / num_requests as f64),
                    savings: row.savings,
                },
            );
        }

        // Whole-chip gateable share: union-idle windows long enough for
        // the chip-level break-even time `regate::PolicyKind::WholeChipFull`
        // gates at.
        let chip_bet = evaluator.gating().whole_chip().bet;
        let total_cycles = outcome.simulation.total_cycles();
        let gateable: u64 = outcome
            .simulation
            .busy_timeline()
            .union_idle_intervals(&TIMELINE_UNITS, total_cycles)
            .iter()
            .filter(|iv| GatingParams::gates_interval(chip_bet, iv.len()))
            .map(npu_sim::CycleInterval::len)
            .sum();
        let whole_chip_idle_fraction =
            if total_cycles == 0 { 0.0 } else { gateable as f64 / total_cycles as f64 };

        let mut latencies: Vec<u64> = outcome.requests.iter().map(|r| r.latency_cycles()).collect();
        latencies.sort_unstable();
        let mean = |values: &mut dyn Iterator<Item = u64>| -> f64 {
            let (mut sum, mut n) = (0u128, 0u64);
            for v in values {
                sum += u128::from(v);
                n += 1;
            }
            if n == 0 {
                0.0
            } else {
                sum as f64 / n as f64
            }
        };
        ServingReport {
            num_requests,
            num_batches: outcome.batches.len(),
            makespan_cycles: outcome.makespan_cycles(),
            p50_latency_cycles: percentile(&latencies, 50.0),
            p99_latency_cycles: percentile(&latencies, 99.0),
            mean_queueing_cycles: mean(&mut outcome.requests.iter().map(|r| r.queueing_cycles())),
            mean_service_cycles: mean(&mut outcome.requests.iter().map(|r| r.service_cycles())),
            measured_duty_cycle: outcome.measured_duty_cycle(),
            whole_chip_idle_fraction,
            designs,
            engine_counters: outcome.simulation.counters().clone(),
        }
    }

    /// Row of one design.
    ///
    /// # Panics
    ///
    /// Panics if the design was not evaluated (all designs always are).
    #[must_use]
    pub fn design(&self, design: Design) -> &DesignServingRow {
        self.designs.get(&design).expect("all designs are evaluated")
    }
}

/// Nearest-rank percentile of a sorted slice (0 for an empty slice).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchPolicy;
    use crate::simulator::ServingSimulator;
    use npu_arch::NpuGeneration;
    use npu_models::{DlrmSize, Workload};

    #[test]
    fn energy_per_request_is_none_when_no_requests_were_served() {
        let simulator = ServingSimulator::new(
            NpuGeneration::D,
            1,
            Workload::dlrm(DlrmSize::Small).with_batch(8),
        );
        let evaluator = Evaluator::new(NpuGeneration::D);
        let outcome = simulator.run(&[0, 1_000], &BatchPolicy::Static { batch: 2 });

        let report = ServingReport::evaluate(&outcome, &evaluator);
        for design in Design::ALL {
            let row = report.design(design);
            let per_request =
                row.energy_per_request_j.expect("a served trace has per-request energy");
            // Two requests, one chip: per-request energy is half the trace.
            assert!((per_request - row.total_j / 2.0).abs() < 1e-12);
        }
        // The whole-chip gateable share is a sub-fraction of the union
        // idleness the measured duty cycle already excludes.
        assert!((0.0..=1.0).contains(&report.whole_chip_idle_fraction));
        assert!(
            report.whole_chip_idle_fraction <= 1.0 - report.measured_duty_cycle + 1e-9,
            "gateable {} vs duty {}",
            report.whole_chip_idle_fraction,
            report.measured_duty_cycle
        );

        // Regression: with zero served requests the row used to report the
        // whole trace's energy as "per request". It now reports no value.
        let mut empty = outcome;
        empty.requests.clear();
        let report = ServingReport::evaluate(&empty, &evaluator);
        assert_eq!(report.num_requests, 0);
        for design in Design::ALL {
            assert_eq!(report.design(design).energy_per_request_j, None);
            assert!(report.design(design).total_j >= 0.0);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 100);
        assert_eq!(percentile(&v, 0.0), 10);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }
}
