//! # npu-compiler — ML-compiler backend for the ReGate NPU simulator
//!
//! The paper's simulator frontend applies "common ML compiler optimizations
//! used in production, such as tiling, operator fusion, and operator
//! reordering", and its backend consumes tile-level information per
//! operator (§4.4). ReGate additionally adds two compiler passes to the
//! backend: *component idleness analysis* and *`setpm` instrumentation*
//! (§4.3), inserted after instruction scheduling and SRAM allocation.
//!
//! This crate implements that backend:
//!
//! * [`tiling`] — per-operator tile selection, SRAM demand (the paper's
//!   Figure 7 metric), and post-tiling HBM traffic;
//! * [`fusion`] — producer→consumer fusion of vector post-processing into
//!   the matrix operator that feeds it;
//! * [`lowering`] — the compiled, tile-annotated operator stream consumed
//!   by the performance simulator ([`CompiledGraph`]), with its producer
//!   edges in one CSR store ([`npu_models::Adjacency`]);
//! * [`sram_alloc`] — double-buffered scratchpad allocation with buffer
//!   lifetimes (the input to software SRAM power gating);
//! * [`vliw`] — expansion of a compiled operator into a representative VLIW
//!   instruction schedule (used for instruction-level analyses such as
//!   Figure 15 and Figure 20);
//! * [`idleness`] — per-functional-unit idle-interval extraction from a
//!   VLIW program;
//! * [`instrument`] — the BET-based `setpm` instrumentation pass.
//!
//! ## Example
//!
//! ```
//! use npu_arch::{NpuGeneration, NpuSpec, ParallelismConfig};
//! use npu_models::{LlamaModel, LlmPhase, Workload};
//! use npu_compiler::Compiler;
//!
//! let spec = NpuSpec::generation(NpuGeneration::D);
//! let workload = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill);
//! let graph = workload.build_graph(&ParallelismConfig::single());
//! let compiled = Compiler::new(spec).compile(&graph);
//! assert_eq!(compiled.len(), graph.len());
//! assert!(compiled.ops().iter().any(|op| op.fused_vu_elements > 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collective;
pub mod fusion;
pub mod idleness;
pub mod instrument;
pub mod lowering;
pub mod sram_alloc;
pub mod tiling;
pub mod vliw;

pub use collective::CollectivePlan;
pub use fusion::FusionPlan;
pub use idleness::{IdleInterval, IdlenessReport};
pub use instrument::{InstrumentationResult, SetPmPolicy};
pub use lowering::{CompiledGraph, CompiledOp, Compiler};
pub use sram_alloc::{BufferLifetime, SegmentLifetime, SramAllocation, SramPeak};
pub use tiling::TileChoice;
