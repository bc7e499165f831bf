//! # npu-models — ML workload generators for the ReGate NPU simulator
//!
//! The paper evaluates ReGate on the ML workloads of Table 1: LLM training
//! and inference (Llama3-8B, Llama2-13B, Llama3-70B, Llama3.1-405B), deep
//! learning recommendation models (DLRM-S/M/L), and stable-diffusion image
//! generation (DiT-XL, GLIGEN). This crate turns those model architectures
//! into *operator graphs*: ordered sequences of tensor operators (matrix
//! multiplications, convolutions, vector operations, embedding lookups, and
//! collectives) with exact shapes, from which the compiler and simulator
//! derive per-component activity.
//!
//! The crate also models multi-chip parallelism (data/tensor/pipeline
//! sharding and the collectives each one induces) and carries the default
//! workload configurations from Table 1 and the SLO-compliant deployment
//! configurations from Table 4.
//!
//! ## Example
//!
//! ```
//! use npu_models::{LlamaModel, LlmPhase, Workload};
//! use npu_arch::ParallelismConfig;
//!
//! let workload = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode);
//! let graph = workload.build_graph(&ParallelismConfig::single());
//! assert!(graph.len() > 100);
//! // Decode is memory-bound: far more bytes than FLOPs per byte of HBM traffic.
//! assert!(graph.total_flops() / graph.total_hbm_bytes() < 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adjacency;
pub mod diffusion;
pub mod dlrm;
pub mod dtype;
pub mod fixtures;
pub mod graph;
pub mod llm;
pub mod op;
pub mod table4;
pub mod workload;

pub use adjacency::Adjacency;
pub use diffusion::{DiffusionConfig, DiffusionModel};
pub use dlrm::{DlrmConfig, DlrmSize};
pub use dtype::DataType;
pub use graph::OperatorGraph;
pub use llm::{LlamaConfig, LlamaModel, LlmPhase};
pub use op::{CollectiveKind, ExecutionUnit, OpKind, Operator};
pub use table4::EvalConfig;
pub use workload::{WorkUnit, Workload};
