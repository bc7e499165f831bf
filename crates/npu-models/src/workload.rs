//! Unified workload abstraction over the LLM, DLRM, and diffusion
//! generators, including the paper's energy-efficiency work units
//! (Joule/iteration, Joule/token, Joule/request, Joule/image).

use serde::{Deserialize, Serialize};

use npu_arch::{NpuSpec, ParallelismConfig};

use crate::diffusion::{DiffusionConfig, DiffusionModel};
use crate::dlrm::{DlrmConfig, DlrmSize};
use crate::dtype::DataType;
use crate::graph::OperatorGraph;
use crate::llm::{LlamaModel, LlmPhase, LlmWorkload};
use crate::op::{CollectiveKind, OpKind, Operator};

/// Unit of work used to normalize energy efficiency (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkUnit {
    /// Training iteration.
    Iteration,
    /// Generated or processed token.
    Token,
    /// Recommendation request.
    Request,
    /// Generated image.
    Image,
}

impl WorkUnit {
    /// Label used in figure axes ("Joule/Iter", "Joule/Token", …).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WorkUnit::Iteration => "Iter",
            WorkUnit::Token => "Token",
            WorkUnit::Request => "Request",
            WorkUnit::Image => "Image",
        }
    }
}

impl std::fmt::Display for WorkUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a request graph could not be lowered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestGraphError {
    /// The workload carries zero samples: there is nothing to lower, and
    /// fabricating a one-sample graph would silently model work that does
    /// not exist (the pre-serving lowering did exactly that).
    EmptyBatch,
    /// The request list is empty — a batch with no members cannot produce
    /// a merge collective.
    NoRequests,
}

impl std::fmt::Display for RequestGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestGraphError::EmptyBatch => {
                f.write_str("workload batch is empty (0 samples): nothing to lower into requests")
            }
            RequestGraphError::NoRequests => {
                f.write_str("request list is empty: a batch needs at least one request")
            }
        }
    }
}

impl std::error::Error for RequestGraphError {}

/// Span of one lowered request inside a [`RequestGraph`]: which operator
/// ids belong to it, how many samples it carries, and when it becomes
/// runnable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestSpan {
    /// Operator-id range of the request's subgraph (half-open).
    pub ops: std::ops::Range<usize>,
    /// Samples the request carries.
    pub samples: u64,
    /// Earliest cycle any of the request's operators may issue — the
    /// dispatch time of the serving batch the request rode in on (0 for
    /// the classic everything-ready-at-cycle-0 lowering).
    pub release_cycle: u64,
}

/// A batch lowered into independent per-request subgraphs plus a final
/// merge, with per-request release metadata — the unit of work the
/// serving simulator schedules on the event timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestGraph {
    /// The merged operator graph (requests' subgraphs + merge operator).
    pub graph: OperatorGraph,
    /// Per lowered request: operator span, samples, release cycle. When
    /// the requested split is finer than one sample per data-parallel
    /// shard, several logical requests collapse into one span (see
    /// [`Workload::try_build_request_graph`]) and the span's release is
    /// the latest of its members'.
    pub requests: Vec<RequestSpan>,
    /// Operator id of the final batch-merge operator.
    pub merge_id: usize,
}

impl RequestGraph {
    /// Release cycle of every operator (indexed by operator id): each
    /// request's operators inherit its span release; the merge inherits
    /// the latest release (it fans in over every request, so it can never
    /// run earlier anyway).
    #[must_use]
    pub fn op_releases(&self) -> Vec<u64> {
        let mut releases = vec![0u64; self.graph.len()];
        for span in &self.requests {
            for id in span.ops.clone() {
                releases[id] = span.release_cycle;
            }
        }
        releases[self.merge_id] = self.requests.iter().map(|s| s.release_cycle).max().unwrap_or(0);
        releases
    }
}

/// One of the benchmark workloads of Table 1, with its batch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Large-language-model workload (training, prefill, or decode).
    Llm(LlmWorkload),
    /// DLRM inference.
    Dlrm(DlrmConfig),
    /// Stable-diffusion image generation.
    Diffusion(DiffusionConfig),
}

impl Workload {
    /// LLM workload with the Table 1 default configuration.
    #[must_use]
    pub fn llm(model: LlamaModel, phase: LlmPhase) -> Self {
        Workload::Llm(LlmWorkload::default_config(model, phase))
    }

    /// DLRM workload with the Table 1 default configuration.
    #[must_use]
    pub fn dlrm(size: DlrmSize) -> Self {
        Workload::Dlrm(DlrmConfig::default_config(size))
    }

    /// Diffusion workload with the Table 1 default configuration.
    #[must_use]
    pub fn diffusion(model: DiffusionModel) -> Self {
        Workload::Diffusion(DiffusionConfig::default_config(model))
    }

    /// Every workload in the paper's benchmark suite (Table 1): four Llama
    /// models × three phases, three DLRM sizes, and two diffusion models.
    #[must_use]
    pub fn benchmark_suite() -> Vec<Workload> {
        let mut out = Vec::new();
        for phase in LlmPhase::ALL {
            for model in LlamaModel::ALL {
                out.push(Workload::llm(model, phase));
            }
        }
        for size in DlrmSize::ALL {
            out.push(Workload::dlrm(size));
        }
        for model in DiffusionModel::ALL {
            out.push(Workload::diffusion(model));
        }
        out
    }

    /// Short label, e.g. `"Llama3-70B Prefill"`, `"DLRM-M"`, `"DiT-XL"`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Workload::Llm(wl) => format!("{} {}", wl.model.name(), wl.phase.label()),
            Workload::Dlrm(cfg) => cfg.size.label().to_string(),
            Workload::Diffusion(cfg) => cfg.model.label().to_string(),
        }
    }

    /// Group label used as the figure column heading ("LLM Training",
    /// "LLM Inference (Prefill)", "DLRM Inference", "Stable Diffusion").
    #[must_use]
    pub fn group(&self) -> &'static str {
        match self {
            Workload::Llm(wl) => match wl.phase {
                LlmPhase::Training => "LLM Training",
                LlmPhase::Prefill => "LLM Inference (Prefill)",
                LlmPhase::Decode => "LLM Inference (Decode)",
            },
            Workload::Dlrm(_) => "DLRM Inference",
            Workload::Diffusion(_) => "Stable Diffusion Inference",
        }
    }

    /// Work unit used for energy-efficiency reporting.
    #[must_use]
    pub fn work_unit(&self) -> WorkUnit {
        match self {
            Workload::Llm(wl) => match wl.phase {
                LlmPhase::Training => WorkUnit::Iteration,
                LlmPhase::Prefill | LlmPhase::Decode => WorkUnit::Token,
            },
            Workload::Dlrm(_) => WorkUnit::Request,
            Workload::Diffusion(_) => WorkUnit::Image,
        }
    }

    /// Number of work units produced by one execution of the graph built by
    /// [`Workload::build_graph`] (across the whole deployment, i.e. counting
    /// every data-parallel replica).
    #[must_use]
    pub fn work_items(&self) -> f64 {
        match self {
            Workload::Llm(wl) => match wl.phase {
                LlmPhase::Training => 1.0,
                LlmPhase::Prefill => (wl.batch * wl.seq_len) as f64,
                LlmPhase::Decode => wl.batch as f64,
            },
            Workload::Dlrm(cfg) => cfg.batch as f64,
            Workload::Diffusion(cfg) => cfg.batch as f64,
        }
    }

    /// Current batch size.
    #[must_use]
    pub fn batch(&self) -> u64 {
        match self {
            Workload::Llm(wl) => wl.batch,
            Workload::Dlrm(cfg) => cfg.batch,
            Workload::Diffusion(cfg) => cfg.batch,
        }
    }

    /// Returns a copy with a different batch size.
    #[must_use]
    pub fn with_batch(&self, batch: u64) -> Self {
        match *self {
            Workload::Llm(wl) => Workload::Llm(wl.with_batch(batch)),
            Workload::Dlrm(cfg) => Workload::Dlrm(cfg.with_batch(batch)),
            Workload::Diffusion(cfg) => Workload::Diffusion(cfg.with_batch(batch)),
        }
    }

    /// Builds the per-chip operator graph under a parallelism configuration.
    #[must_use]
    pub fn build_graph(&self, parallelism: &ParallelismConfig) -> OperatorGraph {
        match self {
            Workload::Llm(wl) => wl.build_graph(parallelism),
            Workload::Dlrm(cfg) => cfg.build_graph(parallelism),
            Workload::Diffusion(cfg) => cfg.build_graph(parallelism),
        }
    }

    /// Bytes of one request's response record in the batch-merge step of
    /// [`Workload::build_request_graph`] (logits / CTR / image handle —
    /// an order-of-magnitude serving-stack constant, not a model shape).
    const RESPONSE_RECORD_BYTES: u64 = 512;

    /// Lowers the workload's batch into `requests` *independent* per-chip
    /// subgraphs merged by a final batch-merge operator that fans in over
    /// every request's sink — the shape of request-level batched serving.
    /// Every request carries `batch / requests` samples and the first
    /// `batch % requests` requests carry one extra, so the whole batch is
    /// lowered. `requests` is additionally clamped so each request's
    /// batch covers the deployment's data-parallel shards — the per-chip
    /// graph builders floor their local batch at one sample, and
    /// splitting finer than one sample per shard would *inflate* the
    /// modeled work instead of conserving it (per-request batches that do
    /// not divide evenly across shards still inherit `build_graph`'s own
    /// integer sharding). The per-request subgraphs share no edges, so
    /// the timeline engine overlaps them freely (one request's HBM
    /// streaming hides under another's compute); the merge is an
    /// all-gather of the response records when the deployment spans
    /// several chips and a vector concatenation on one.
    ///
    /// With `requests == 1` this degenerates to [`Workload::build_graph`]
    /// plus the merge operator.
    ///
    /// # Panics
    ///
    /// Panics with [`RequestGraphError::EmptyBatch`] when the workload
    /// carries zero samples (use [`Workload::try_build_request_graph`] to
    /// handle an empty batch without panicking).
    #[must_use]
    pub fn build_request_graph(
        &self,
        parallelism: &ParallelismConfig,
        requests: u64,
    ) -> OperatorGraph {
        // Pre-clamp to the batch before materializing the release vector:
        // the lowering can never produce more requests than samples, and a
        // caller passing a huge `requests` must get the clamped graph (as
        // the pre-release API did), not a `requests`-sized allocation.
        let requests = requests.clamp(1, self.batch().max(1));
        let releases = vec![0u64; usize::try_from(requests).unwrap_or(1)];
        match self.try_build_request_graph(parallelism, &releases) {
            Ok(request_graph) => request_graph.graph,
            Err(err) => panic!("build_request_graph: {err}"),
        }
    }

    /// Fallible, release-carrying variant of
    /// [`Workload::build_request_graph`]: lowers the batch into
    /// `releases.len()` logical requests where logical request `r` becomes
    /// runnable at `releases[r]` cycles, and returns the per-request spans
    /// alongside the graph. This is the entry point the serving simulator
    /// uses to schedule a formed batch whose members arrived over time.
    ///
    /// The logical request count is clamped exactly like
    /// [`Workload::build_request_graph`] clamps `requests` (no finer than
    /// one sample per data-parallel shard); when clamping merges logical
    /// requests, they are grouped contiguously in FIFO order and the
    /// merged span's release is the *latest* of its members' (a span can
    /// only run once all of its requests exist).
    ///
    /// # Errors
    ///
    /// [`RequestGraphError::EmptyBatch`] when the workload carries zero
    /// samples, [`RequestGraphError::NoRequests`] when `releases` is
    /// empty — both the degenerate inputs the infallible path used to
    /// lower into a fabricated one-sample graph.
    ///
    /// # Panics
    ///
    /// Never for the inputs accepted above; a panic means the internal
    /// batch-split invariant broke (the large-shard subgraph is always
    /// materialized when a request receives the extra sample).
    pub fn try_build_request_graph(
        &self,
        parallelism: &ParallelismConfig,
        releases: &[u64],
    ) -> Result<RequestGraph, RequestGraphError> {
        if releases.is_empty() {
            return Err(RequestGraphError::NoRequests);
        }
        if self.batch() == 0 {
            return Err(RequestGraphError::EmptyBatch);
        }
        // The degree by which the workload's own graph builder divides the
        // batch: DLRM model-shards its tables across every chip and
        // data-shards the MLP batch over all of them, while the LLM and
        // diffusion builders divide the batch by the data-parallel degree
        // only (tensor/pipeline parallelism shards weights, not samples).
        let batch_shards = match self {
            Workload::Dlrm(_) => parallelism.num_chips() as u64,
            Workload::Llm(_) | Workload::Diffusion(_) => parallelism.data as u64,
        }
        .max(1);
        let logical = releases.len() as u64;
        let requests = logical.clamp(1, (self.batch() / batch_shards).max(1));
        let base = (self.batch() / requests).max(1);
        let extra = self.batch() % requests;
        let small = self.with_batch(base).build_graph(parallelism);
        let large =
            if extra > 0 { Some(self.with_batch(base + 1).build_graph(parallelism)) } else { None };
        // A request's results are ready when *every* sink of its subgraph
        // has finished — derived structurally from the edges, not assumed
        // to be the last-pushed operator.
        let small_sinks = small.sinks();
        let large_sinks = large.as_ref().map(OperatorGraph::sinks).unwrap_or_default();
        let mut graph =
            OperatorGraph::new(format!("{}-x{requests}req-{parallelism}", self.label()));
        let mut sinks = Vec::new();
        let mut spans = Vec::with_capacity(requests as usize);
        for r in 0..requests {
            let (sub, sub_sinks) = if r < extra {
                (large.as_ref().expect("extra > 0"), &large_sinks)
            } else {
                (&small, &small_sinks)
            };
            let range = graph.extend_from(sub);
            debug_assert!(!range.is_empty(), "a request subgraph cannot be empty");
            sinks.extend(sub_sinks.iter().map(|s| range.start + s));
            // Contiguous fair grouping of the logical requests onto the
            // lowered spans (identical to the sample distribution when the
            // counts match): span r owns logical indices [lo, hi).
            let lo = (r * logical / requests) as usize;
            let hi = ((r + 1) * logical / requests) as usize;
            let release = releases[lo..hi].iter().copied().max().unwrap_or(0);
            spans.push(RequestSpan {
                ops: range,
                samples: base + u64::from(r < extra),
                release_cycle: release,
            });
        }
        let dt = self.dtype();
        let merge = if parallelism.num_chips() > 1 {
            Operator::new(
                "batch_merge",
                OpKind::Collective {
                    kind: CollectiveKind::AllGather,
                    bytes_per_chip: requests * Self::RESPONSE_RECORD_BYTES,
                },
                dt,
            )
        } else {
            Operator::new(
                "batch_merge",
                OpKind::Elementwise {
                    elements: requests * Self::RESPONSE_RECORD_BYTES / dt.size_bytes().max(1),
                    flops_per_element: 1,
                    num_inputs: 1,
                },
                dt,
            )
        };
        let merge_id = graph.push_with_producers(merge, sinks);
        Ok(RequestGraph { graph, requests: spans, merge_id })
    }

    /// Minimum per-chip HBM bytes needed to run the workload under a
    /// parallelism configuration (model weights / embedding shards plus KV
    /// cache and a 20% activation margin).
    #[must_use]
    pub fn hbm_demand_bytes(&self, parallelism: &ParallelismConfig) -> u64 {
        let margin = 1.2;
        match self {
            Workload::Llm(wl) => {
                let cfg = wl.model.config();
                let shard = parallelism.tensor as u64 * parallelism.pipeline as u64;
                let weights = cfg.weight_bytes(wl.dtype) / shard.max(1);
                // Optimizer state is assumed ZeRO-sharded across the whole
                // deployment / offloaded to host memory (the paper's Table 4
                // runs 405B training on 16 chips, which only fits the bf16
                // weights), so it does not contribute to per-chip demand.
                let state = 0;
                let kv = if wl.phase == LlmPhase::Decode {
                    let per_token = cfg.kv_cache_bytes_per_token(wl.dtype) / shard.max(1);
                    per_token * (wl.seq_len + wl.output_len) * wl.batch / parallelism.data as u64
                } else {
                    0
                };
                ((weights + state + kv) as f64 * margin) as u64
            }
            Workload::Dlrm(cfg) => {
                let chips = parallelism.num_chips() as u64;
                ((cfg.size.embedding_table_bytes() / chips.max(1)) as f64 * margin) as u64
            }
            Workload::Diffusion(_) => {
                // U-Net / DiT weights are ~1-3 GB; always fit.
                4 << 30
            }
        }
    }

    /// Chooses a sensible default parallelism for `num_chips` chips of the
    /// given NPU generation: the smallest power-of-two tensor-parallel
    /// degree under which the per-chip HBM demand fits, with the remaining
    /// chips used for data parallelism.
    ///
    /// Returns `None` if the workload cannot fit even with every chip used
    /// for model sharding.
    #[must_use]
    pub fn default_parallelism(
        &self,
        spec: &NpuSpec,
        num_chips: usize,
    ) -> Option<ParallelismConfig> {
        let hbm = spec.hbm_bytes();
        match self {
            Workload::Dlrm(_) | Workload::Diffusion(_) => {
                let p = ParallelismConfig::new(num_chips, 1, 1);
                if self.hbm_demand_bytes(&p) <= hbm {
                    Some(p)
                } else {
                    None
                }
            }
            Workload::Llm(_) => {
                let mut tp = 1usize;
                while tp <= num_chips {
                    if num_chips.is_multiple_of(tp) {
                        // Prefer pure tensor parallelism up to 8 ways, then add
                        // pipeline stages for very large models.
                        let candidates = if tp <= 8 {
                            vec![ParallelismConfig::new(num_chips / tp, tp, 1)]
                        } else {
                            let pp = (tp / 8).max(1);
                            vec![
                                ParallelismConfig::new(num_chips / tp, 8, pp),
                                ParallelismConfig::new(num_chips / tp, tp, 1),
                            ]
                        };
                        for p in candidates {
                            if self.hbm_demand_bytes(&p) <= hbm {
                                return Some(p);
                            }
                        }
                    }
                    tp *= 2;
                }
                None
            }
        }
    }

    /// Compute data type of the workload.
    #[must_use]
    pub fn dtype(&self) -> DataType {
        match self {
            Workload::Llm(wl) => wl.dtype,
            Workload::Dlrm(cfg) => cfg.dtype,
            Workload::Diffusion(cfg) => cfg.dtype,
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_arch::NpuGeneration;

    #[test]
    fn benchmark_suite_matches_table1() {
        let suite = Workload::benchmark_suite();
        // 4 models x 3 phases + 3 DLRM + 2 diffusion = 17 workloads.
        assert_eq!(suite.len(), 17);
        assert!(suite.iter().any(|w| w.label() == "Llama3.1-405B Training"));
        assert!(suite.iter().any(|w| w.label() == "DLRM-L"));
        assert!(suite.iter().any(|w| w.label() == "GLIGEN"));
    }

    #[test]
    fn work_units_match_paper_metrics() {
        assert_eq!(
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Training).work_unit(),
            WorkUnit::Iteration
        );
        assert_eq!(
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode).work_unit(),
            WorkUnit::Token
        );
        assert_eq!(Workload::dlrm(DlrmSize::Small).work_unit(), WorkUnit::Request);
        assert_eq!(Workload::diffusion(DiffusionModel::DitXl).work_unit(), WorkUnit::Image);
        assert_eq!(WorkUnit::Token.to_string(), "Token");
    }

    #[test]
    fn prefill_work_items_count_tokens() {
        let wl = Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Prefill).with_batch(4);
        assert_eq!(wl.work_items(), 4.0 * 4096.0);
        let decode = Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Decode).with_batch(16);
        assert_eq!(decode.work_items(), 16.0);
    }

    #[test]
    fn hbm_demand_shrinks_with_model_sharding() {
        let wl = Workload::llm(LlamaModel::Llama3_405B, LlmPhase::Prefill);
        let single = wl.hbm_demand_bytes(&ParallelismConfig::single());
        let tp8 = wl.hbm_demand_bytes(&ParallelismConfig::new(1, 8, 1));
        assert!(single > 7 * tp8, "sharding 8 ways should cut demand ~8x");
    }

    #[test]
    fn default_parallelism_fits_in_hbm() {
        let spec = NpuSpec::generation(NpuGeneration::D);
        // 70B bf16 weights (~131 GiB) do not fit on one 95 GB chip.
        let wl = Workload::llm(LlamaModel::Llama3_70B, LlmPhase::Prefill);
        assert!(wl.default_parallelism(&spec, 1).is_none());
        let p = wl.default_parallelism(&spec, 4).expect("fits on 4 chips");
        assert!(p.tensor >= 2);
        assert!(wl.hbm_demand_bytes(&p) <= spec.hbm_bytes());
    }

    #[test]
    fn default_parallelism_405b_needs_many_chips() {
        let spec = NpuSpec::generation(NpuGeneration::D);
        let wl = Workload::llm(LlamaModel::Llama3_405B, LlmPhase::Training);
        assert!(wl.default_parallelism(&spec, 4).is_none());
        let p = wl.default_parallelism(&spec, 64).expect("405B training fits on 64 chips");
        assert_eq!(p.num_chips(), 64);
    }

    #[test]
    fn dlrm_parallelism_is_data_parallel_table_sharding() {
        let spec = NpuSpec::generation(NpuGeneration::D);
        let wl = Workload::dlrm(DlrmSize::Large);
        assert!(wl.default_parallelism(&spec, 1).is_none(), "98 GB of tables cannot fit one chip");
        let p = wl.default_parallelism(&spec, 8).unwrap();
        assert_eq!(p, ParallelismConfig::new(8, 1, 1));
    }

    #[test]
    fn graphs_build_for_every_suite_entry() {
        let spec = NpuSpec::generation(NpuGeneration::D);
        for wl in Workload::benchmark_suite() {
            // Shrink diffusion steps indirectly by using small batch; graphs
            // are still fully built (this also guards against panics).
            let chips = 16;
            if let Some(p) = wl.default_parallelism(&spec, chips) {
                let g = wl.build_graph(&p);
                assert!(!g.is_empty(), "{} produced an empty graph", wl.label());
            }
        }
    }

    #[test]
    fn request_graph_builds_independent_chains_with_a_final_merge() {
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode).with_batch(8);
        let single = wl.with_batch(2).build_graph(&ParallelismConfig::single());
        let g = wl.build_request_graph(&ParallelismConfig::single(), 4);
        assert_eq!(g.len(), 4 * single.len() + 1);
        // Four independent request heads, one per chain.
        assert_eq!(g.sources().len(), 4);
        // The merge fans in over every request's sink.
        let merge = g.operators().last().unwrap();
        assert_eq!(&*merge.name, "batch_merge");
        assert_eq!(g.producers_of(merge.id).len(), 4);
        assert_eq!(g.topological_order().len(), g.len());
        // The requests are parallel branches: the hop-count critical path
        // of the merged graph is one request's path plus the merge op,
        // not the sum over requests.
        let single_cp = single.critical_path_cost(|_| 1.0);
        assert!((g.critical_path_cost(|_| 1.0) - (single_cp + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn request_graph_uses_a_collective_merge_across_chips() {
        let wl = Workload::dlrm(DlrmSize::Small).with_batch(1024);
        let g = wl.build_request_graph(&ParallelismConfig::new(8, 1, 1), 2);
        let merge = g.operators().last().unwrap();
        assert!(merge.is_collective(), "multi-chip merge must be a collective");
        assert!(merge.ici_bytes() > 0);
        // Each DLRM request subgraph contributes its own gather sources.
        assert!(g.sources().len() >= 2 * 4);
    }

    #[test]
    fn request_graph_clamps_requests_to_the_batch() {
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode).with_batch(2);
        let g = wl.build_request_graph(&ParallelismConfig::single(), 64);
        assert_eq!(g.sources().len(), 2, "at most one request per sample");
        // The clamp must happen *before* the release vector is allocated:
        // an absurd request count returns the clamped graph (the
        // pre-release behaviour), not an OOM-sized allocation.
        let huge = wl.build_request_graph(&ParallelismConfig::single(), u64::MAX);
        assert_eq!(huge.sources().len(), 2);
        assert_eq!(huge.len(), g.len());
    }

    #[test]
    fn request_graph_conserves_the_batch_across_data_parallel_shards() {
        // DLRM shards its batch over all 8 chips; per-chip work is linear
        // in the batch, so 16 requests of 64 samples must model exactly
        // the FLOPs of one 1024-sample batch (minus the merge op).
        let wl = Workload::dlrm(DlrmSize::Small).with_batch(1024);
        let p = ParallelismConfig::new(8, 1, 1);
        let g = wl.build_request_graph(&p, 16);
        let merge_flops = g.operators().last().unwrap().flops();
        let full = wl.build_graph(&p);
        let relative =
            ((g.total_flops() - merge_flops) - full.total_flops()).abs() / full.total_flops();
        assert!(relative < 1e-12, "sharded request lowering drifted by {relative}");
        // Splitting finer than one sample per shard would inflate the
        // modeled work (local batches floor at 1): the clamp prevents it.
        let clamped = wl.build_request_graph(&p, 100_000);
        let clamped_merge = clamped.operators().last().unwrap().flops();
        assert!(
            (clamped.total_flops() - clamped_merge - full.total_flops()).abs() / full.total_flops()
                < 1e-12,
            "over-splitting inflated the modeled work"
        );
        // DLRM shards its batch by *every* chip regardless of how the
        // parallelism is labelled — the clamp must track num_chips, not
        // the data-parallel degree alone.
        let tp = ParallelismConfig::new(1, 8, 1);
        let full_tp = wl.build_graph(&tp);
        let g_tp = wl.build_request_graph(&tp, 100_000);
        let merge_tp = g_tp.operators().last().unwrap().flops();
        assert!(
            (g_tp.total_flops() - merge_tp - full_tp.total_flops()).abs() / full_tp.total_flops()
                < 1e-12,
            "tensor-parallel DLRM over-splitting inflated the modeled work"
        );
    }

    #[test]
    fn request_graph_conserves_an_indivisible_batch() {
        // batch 7 over 3 requests must lower all 7 samples (3 + 2 + 2),
        // not 3 × 2. DLRM work is linear in the batch on one chip, so the
        // request graph's FLOPs (minus the merge op) must equal the
        // monolithic graph's exactly.
        let wl = Workload::dlrm(DlrmSize::Small).with_batch(7);
        let p = ParallelismConfig::single();
        let g = wl.build_request_graph(&p, 3);
        let merge_flops = g.operators().last().unwrap().flops();
        let full = wl.build_graph(&p);
        assert!(
            (g.total_flops() - merge_flops - full.total_flops()).abs() < 1e-6,
            "request lowering dropped samples: {} vs {}",
            g.total_flops() - merge_flops,
            full.total_flops()
        );
    }

    #[test]
    fn empty_batch_is_a_clear_error_not_a_degenerate_graph() {
        // A 0-sample workload used to be silently floored to one sample,
        // fabricating work; the fallible path must reject it instead.
        let wl = Workload::dlrm(DlrmSize::Small).with_batch(0);
        let err = wl
            .try_build_request_graph(&ParallelismConfig::single(), &[0, 0])
            .expect_err("an empty batch cannot lower");
        assert_eq!(err, RequestGraphError::EmptyBatch);
        assert!(err.to_string().contains("empty"), "error message must name the cause: {err}");
        // An empty request list is the other degenerate input.
        let err = Workload::dlrm(DlrmSize::Small)
            .try_build_request_graph(&ParallelismConfig::single(), &[])
            .expect_err("no requests cannot lower");
        assert_eq!(err, RequestGraphError::NoRequests);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn infallible_path_panics_with_the_clear_message_on_an_empty_batch() {
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode).with_batch(0);
        let _ = wl.build_request_graph(&ParallelismConfig::single(), 4);
    }

    #[test]
    fn request_spans_carry_releases_and_partition_the_graph() {
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode).with_batch(8);
        let releases = [0u64, 100, 100, 2500];
        let rg = wl
            .try_build_request_graph(&ParallelismConfig::single(), &releases)
            .expect("4 requests of 2 samples lower cleanly");
        assert_eq!(rg.requests.len(), 4);
        // Spans tile the graph exactly, leaving only the merge.
        let mut cursor = 0usize;
        for (span, &release) in rg.requests.iter().zip(releases.iter()) {
            assert_eq!(span.ops.start, cursor);
            cursor = span.ops.end;
            assert_eq!(span.samples, 2);
            assert_eq!(span.release_cycle, release);
        }
        assert_eq!(cursor, rg.merge_id);
        assert_eq!(rg.merge_id + 1, rg.graph.len());
        // Per-op releases: each span's ops inherit its release, the merge
        // inherits the latest.
        let op_releases = rg.op_releases();
        assert_eq!(op_releases.len(), rg.graph.len());
        for span in &rg.requests {
            assert!(op_releases[span.ops.clone()].iter().all(|&r| r == span.release_cycle));
        }
        assert_eq!(op_releases[rg.merge_id], 2500);
        // The graph itself is identical to the infallible lowering.
        let classic = wl.build_request_graph(&ParallelismConfig::single(), 4);
        assert_eq!(rg.graph, classic);
    }

    #[test]
    fn clamped_spans_take_the_latest_member_release() {
        // batch 2 on one chip clamps 4 logical requests onto 2 spans; each
        // span must adopt the latest release of its contiguous group.
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode).with_batch(2);
        let rg = wl
            .try_build_request_graph(&ParallelismConfig::single(), &[10, 20, 30, 40])
            .expect("clamped lowering succeeds");
        assert_eq!(rg.requests.len(), 2);
        assert_eq!(rg.requests[0].release_cycle, 20);
        assert_eq!(rg.requests[1].release_cycle, 40);
    }

    #[test]
    fn display_uses_label() {
        let wl = Workload::llm(LlamaModel::Llama3_70B, LlmPhase::Decode);
        assert_eq!(wl.to_string(), "Llama3-70B Decode");
        assert_eq!(wl.group(), "LLM Inference (Decode)");
    }
}
