//! # npu-sim — tile-level NPU performance simulator
//!
//! Models the execution of a compiled operator graph on one NPU chip of a
//! (possibly multi-chip) deployment, reporting per-operator and
//! per-component activity: execution cycles, systolic-array active cycles
//! and spatial utilization, vector-unit active cycles, HBM/DMA busy cycles,
//! ICI busy cycles, and live SRAM bytes. These statistics are exactly what
//! the paper's characterization (§3, Figures 4–9) and the ReGate energy
//! model (§6) consume.
//!
//! The simulator follows the paper's methodology (§4.4): "the simulator
//! backend models the execution of operators at tile granularity and
//! reports statistics on each component, including the execution time in
//! cycles, memory/ICI traffic, and FLOPs utilization". Execution is
//! event-driven on a global clock (see [`timeline`]): the compiled
//! operator DAG's producer edges are honoured directly — an operator
//! waits only on *its* producers, the start of its own HBM prefetch, and
//! its execution resource (completing at `max(compute, stream)`, the
//! intra-operator double-buffering idealization) — so the double-buffered
//! DMA stream of operator `k+1` overlaps the compute of operator `k`,
//! independent subgraphs (DLRM's per-table gathers, the chains of a
//! multi-request batch) overlap freely. The engine records each busy
//! interval once, per resource instance
//! ([`SimulationResult::resource_timeline`]); the result derives merged
//! per-component busy intervals from those tracks
//! ([`SimulationResult::busy_timeline`]) plus an idle-interval histogram
//! ([`SimulationResult::idle_histogram`]) for interval-accurate gating.
//!
//! ## Example
//!
//! ```
//! use npu_arch::{ChipConfig, NpuGeneration, ParallelismConfig};
//! use npu_compiler::Compiler;
//! use npu_models::{LlamaModel, LlmPhase, Workload};
//! use npu_sim::Simulator;
//!
//! let chip = ChipConfig::new(NpuGeneration::D, 1);
//! let workload = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill);
//! let graph = workload.build_graph(&ParallelismConfig::single());
//! let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
//! let result = Simulator::new(chip).run(&compiled);
//! assert!(result.total_cycles() > 0);
//! // Prefill keeps the systolic arrays busy most of the time.
//! assert!(result.activity().temporal_utilization(npu_arch::ComponentKind::Sa) > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activity;
pub mod analysis;
pub mod engine;
pub mod events;
pub mod observer;
pub mod pod;
pub mod rng;
pub mod segments;
pub mod timeline;
pub mod timing;
pub mod trace;
pub mod validation;

pub use activity::ComponentActivity;
pub use analysis::{
    AnalysisReport, Diagnostic, MakespanWindow, OpSpan, Severity, SramCapacityReport,
    SramCapacityViolation,
};
pub use engine::{AnchorProfile, PreparedSimulator, SimulationResult, Simulator};
pub use observer::{NullObserver, SimObserver};
pub use pod::PodBuilder;
pub use rng::SplitMix64;
pub use segments::{SegmentBand, SegmentTimeline};
pub use timeline::{
    BusyTimeline, CollectiveSchedule, CycleInterval, EngineScratch, IdleBucket, IdleHistogram,
    Resource, ResourceId, ResourceSet, ResourceTimeline, RunCounters, Schedule, ScheduledOp,
};
pub use timing::OpTiming;
pub use trace::{TraceRecorder, TraceSlice};
pub use validation::{correlation_r2, ValidationPoint, ValidationReport};
