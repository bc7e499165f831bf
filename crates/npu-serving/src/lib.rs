//! # npu-serving — arrival-driven request serving on the event timeline
//!
//! ReGate's duty-cycle analysis (§3) shows production NPUs idle not only
//! *inside* an inference but *between* inferences; a single cycle-0 batch
//! simulation reduces that inter-request idleness to a closed-form scalar
//! the gating policies never see. This crate turns the simulator into a
//! request-serving system:
//!
//! * [`ArrivalProcess`] — deterministic request traces: fixed-rate,
//!   seeded-Poisson (via the shared [`npu_sim::rng::SplitMix64`]), and
//!   bursty on/off;
//! * [`BatchPolicy`] — FIFO batch formation: static batch-N and a dynamic
//!   window that closes on max-batch-or-deadline, the continuous-batching
//!   server shape;
//! * [`ServingSimulator`] — lowers each formed batch through
//!   `Workload::build_request_graph`, releases every operator of a batch
//!   at its dispatch cycle, and schedules the whole trace on the timeline
//!   with those **release times**, so queueing delay and inter-request
//!   gaps become first-class idle intervals that the unmodified
//!   interval-walking gating evaluator prices;
//! * [`ServingReport`] — p50/p99 latency, the queueing/service split,
//!   energy per request and savings per design as a function of offered
//!   load, and a *measured* duty cycle that reconciles the paper's
//!   out-of-duty-cycle scalar with what the schedule actually shows.
//!
//! At saturating load (all requests at cycle 0) the serving schedule
//! reproduces the classic single-batch run bit for bit; at low load the
//! long inter-request intervals are exactly what ReGate gates.
//!
//! ## Example
//!
//! ```
//! use npu_arch::NpuGeneration;
//! use npu_models::{DlrmSize, Workload};
//! use npu_serving::{ArrivalProcess, BatchPolicy, ServingReport, ServingSimulator};
//! use regate::{Design, Evaluator};
//!
//! // Each request is one 32-sample recommendation query.
//! let simulator = ServingSimulator::new(
//!     NpuGeneration::D,
//!     1,
//!     Workload::dlrm(DlrmSize::Small).with_batch(32),
//! );
//! let arrivals = ArrivalProcess::Poisson { mean_interval_cycles: 200_000.0, seed: 1 }.arrivals(8);
//! let outcome = simulator.run(&arrivals, &BatchPolicy::Static { batch: 4 });
//! assert_eq!(outcome.requests.len(), 8);
//! let report = ServingReport::evaluate(&outcome, &Evaluator::new(NpuGeneration::D));
//! assert!(report.p99_latency_cycles >= report.p50_latency_cycles);
//! assert!(report.design(Design::ReGateFull).savings > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod batch;
pub mod report;
pub mod simulator;

pub use arrival::ArrivalProcess;
pub use batch::{BatchPolicy, FormedBatch};
pub use report::{DesignServingRow, ServingReport};
pub use simulator::{
    BatchRecord, RequestRecord, ServingCacheCounters, ServingOutcome, ServingSimulator,
};
