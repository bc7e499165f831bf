//! Large-language-model workload generator (Llama family, paper Table 1).
//!
//! Produces the per-chip operator graph of one unit of work:
//!
//! * **Training**: forward + backward pass over one batch (default batch 32,
//!   sequence length 4096) plus gradient all-reduce across data-parallel
//!   replicas.
//! * **Prefill**: forward pass over the full input sequence (default 4096
//!   tokens) for one request.
//! * **Decode**: forward pass for a single output token with the KV cache
//!   resident in HBM (default 512 output tokens per request, each token one
//!   graph execution).
//!
//! Tensor parallelism shards attention heads and FFN columns and inserts
//! all-reduces; pipeline parallelism shards layers and inserts point-to-point
//! activations transfers; data parallelism shards the batch and (for
//! training) all-reduces gradients.

use serde::{Deserialize, Serialize};

use npu_arch::ParallelismConfig;

use crate::dtype::DataType;
use crate::graph::OperatorGraph;
use crate::op::{CollectiveKind, OpKind, Operator};

/// The Llama model variants evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(non_camel_case_types)]
pub enum LlamaModel {
    /// Llama3-8B.
    Llama3_8B,
    /// Llama2-13B.
    Llama2_13B,
    /// Llama3-70B.
    Llama3_70B,
    /// Llama3.1-405B.
    Llama3_405B,
}

impl LlamaModel {
    /// All evaluated model sizes in ascending parameter count.
    pub const ALL: [LlamaModel; 4] = [
        LlamaModel::Llama3_8B,
        LlamaModel::Llama2_13B,
        LlamaModel::Llama3_70B,
        LlamaModel::Llama3_405B,
    ];

    /// Short label used in figures ("8B", "13B", "70B", "405B").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LlamaModel::Llama3_8B => "8B",
            LlamaModel::Llama2_13B => "13B",
            LlamaModel::Llama3_70B => "70B",
            LlamaModel::Llama3_405B => "405B",
        }
    }

    /// Full model name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LlamaModel::Llama3_8B => "Llama3-8B",
            LlamaModel::Llama2_13B => "Llama2-13B",
            LlamaModel::Llama3_70B => "Llama3-70B",
            LlamaModel::Llama3_405B => "Llama3.1-405B",
        }
    }

    /// The architectural configuration of the model.
    #[must_use]
    pub fn config(self) -> LlamaConfig {
        match self {
            LlamaModel::Llama3_8B => LlamaConfig {
                model: self,
                num_layers: 32,
                hidden: 4096,
                num_heads: 32,
                num_kv_heads: 8,
                head_dim: 128,
                ffn_dim: 14336,
                vocab_size: 128_256,
            },
            LlamaModel::Llama2_13B => LlamaConfig {
                model: self,
                num_layers: 40,
                hidden: 5120,
                num_heads: 40,
                num_kv_heads: 40,
                head_dim: 128,
                ffn_dim: 13824,
                vocab_size: 32_000,
            },
            LlamaModel::Llama3_70B => LlamaConfig {
                model: self,
                num_layers: 80,
                hidden: 8192,
                num_heads: 64,
                num_kv_heads: 8,
                head_dim: 128,
                ffn_dim: 28672,
                vocab_size: 128_256,
            },
            LlamaModel::Llama3_405B => LlamaConfig {
                model: self,
                num_layers: 126,
                hidden: 16384,
                num_heads: 128,
                num_kv_heads: 8,
                head_dim: 128,
                ffn_dim: 53248,
                vocab_size: 128_256,
            },
        }
    }
}

impl std::fmt::Display for LlamaModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Execution phase of an LLM workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LlmPhase {
    /// One training iteration (forward + backward + optimizer).
    Training,
    /// Prefill: process the full input prompt of one request.
    Prefill,
    /// Decode: generate one output token with the KV cache in HBM.
    Decode,
}

impl LlmPhase {
    /// All phases.
    pub const ALL: [LlmPhase; 3] = [LlmPhase::Training, LlmPhase::Prefill, LlmPhase::Decode];

    /// Label used in figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LlmPhase::Training => "Training",
            LlmPhase::Prefill => "Prefill",
            LlmPhase::Decode => "Decode",
        }
    }
}

impl std::fmt::Display for LlmPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Transformer architecture parameters of a Llama model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlamaConfig {
    /// Which model this configuration belongs to.
    pub model: LlamaModel,
    /// Number of transformer layers.
    pub num_layers: u64,
    /// Hidden (model) dimension.
    pub hidden: u64,
    /// Number of attention (query) heads.
    pub num_heads: u64,
    /// Number of key/value heads (grouped-query attention).
    pub num_kv_heads: u64,
    /// Per-head dimension.
    pub head_dim: u64,
    /// Feed-forward intermediate dimension.
    pub ffn_dim: u64,
    /// Vocabulary size.
    pub vocab_size: u64,
}

impl LlamaConfig {
    /// Total parameter count of the model (weights only).
    #[must_use]
    pub fn param_count(&self) -> u64 {
        let attn = self.hidden * self.num_heads * self.head_dim // Q
            + 2 * self.hidden * self.num_kv_heads * self.head_dim // K, V
            + self.num_heads * self.head_dim * self.hidden; // O
        let ffn = 3 * self.hidden * self.ffn_dim; // gate, up, down
        let per_layer = attn + ffn + 2 * self.hidden; // + 2 norms
        per_layer * self.num_layers + 2 * self.vocab_size * self.hidden // embed + lm head
    }

    /// Model weight footprint in bytes for a given data type.
    #[must_use]
    pub fn weight_bytes(&self, dtype: DataType) -> u64 {
        self.param_count() * dtype.size_bytes()
    }

    /// KV-cache bytes per token (both K and V across all layers).
    #[must_use]
    pub fn kv_cache_bytes_per_token(&self, dtype: DataType) -> u64 {
        2 * self.num_layers * self.num_kv_heads * self.head_dim * dtype.size_bytes()
    }

    /// Approximate FLOPs of one forward pass over `tokens` tokens with a
    /// context of `context` tokens (the standard 2·params·tokens estimate
    /// plus attention score/context terms).
    #[must_use]
    pub fn forward_flops(&self, tokens: u64, context: u64) -> f64 {
        let dense = 2.0 * self.param_count() as f64 * tokens as f64;
        let attn = 4.0
            * self.num_layers as f64
            * self.num_heads as f64
            * self.head_dim as f64
            * tokens as f64
            * context as f64;
        dense + attn
    }
}

/// Parameters of one LLM workload instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LlmWorkload {
    /// Model variant.
    pub model: LlamaModel,
    /// Phase (training / prefill / decode).
    pub phase: LlmPhase,
    /// Batch size (sequences for training/prefill, concurrent requests for decode).
    pub batch: u64,
    /// Input sequence length (training/prefill) or current context length (decode).
    pub seq_len: u64,
    /// Output sequence length (decode only; tokens generated per request).
    pub output_len: u64,
    /// Compute data type.
    pub dtype: DataType,
}

impl LlmWorkload {
    /// Default configuration from Table 1 for a model and phase.
    ///
    /// Training: batch 32, sequence 4096. Inference: batch 1, input 4096,
    /// output 512.
    #[must_use]
    pub fn default_config(model: LlamaModel, phase: LlmPhase) -> Self {
        match phase {
            LlmPhase::Training => LlmWorkload {
                model,
                phase,
                batch: 32,
                seq_len: 4096,
                output_len: 0,
                dtype: DataType::Bf16,
            },
            LlmPhase::Prefill => LlmWorkload {
                model,
                phase,
                batch: 1,
                seq_len: 4096,
                output_len: 512,
                dtype: DataType::Bf16,
            },
            LlmPhase::Decode => LlmWorkload {
                model,
                phase,
                batch: 1,
                seq_len: 4096,
                output_len: 512,
                dtype: DataType::Bf16,
            },
        }
    }

    /// Returns a copy with a different batch size.
    #[must_use]
    pub fn with_batch(mut self, batch: u64) -> Self {
        self.batch = batch;
        self
    }

    /// Builds the per-chip operator graph of one unit of work under the
    /// given parallelism configuration.
    ///
    /// The graph represents the work executed by a single chip:
    /// `layers / pipeline` transformer layers over `batch / data` sequences
    /// with attention heads and FFN columns sharded `tensor` ways.
    #[must_use]
    pub fn build_graph(&self, parallelism: &ParallelismConfig) -> OperatorGraph {
        let cfg = self.model.config();
        let tp = parallelism.tensor as u64;
        let pp = parallelism.pipeline as u64;
        let dp = parallelism.data as u64;

        let local_batch = (self.batch / dp).max(1);
        let layers_per_stage = (cfg.num_layers / pp).max(1);

        let mut graph = OperatorGraph::new(format!(
            "{}-{}-b{}-{}",
            cfg.model.name(),
            self.phase.label(),
            self.batch,
            parallelism
        ));

        match self.phase {
            LlmPhase::Training => {
                self.build_dense_pass(
                    &mut graph,
                    &cfg,
                    local_batch,
                    self.seq_len,
                    tp,
                    pp,
                    layers_per_stage,
                    true,
                );
                // Gradient all-reduce across data-parallel replicas (per
                // iteration, over this stage's shard of the parameters).
                if dp > 1 {
                    let grad_bytes = cfg.param_count() / (tp * pp) * self.dtype.size_bytes();
                    graph.push(Operator::new(
                        "grad_allreduce",
                        OpKind::Collective {
                            kind: CollectiveKind::AllReduce,
                            bytes_per_chip: grad_bytes,
                        },
                        self.dtype,
                    ));
                }
                // Optimizer update (elementwise over the local parameter shard).
                let local_params = cfg.param_count() / (tp * pp);
                graph.push(Operator::new(
                    "optimizer_update",
                    OpKind::Elementwise {
                        elements: local_params,
                        flops_per_element: 4,
                        num_inputs: 3,
                    },
                    DataType::F32,
                ));
            }
            LlmPhase::Prefill => {
                self.build_dense_pass(
                    &mut graph,
                    &cfg,
                    local_batch,
                    self.seq_len,
                    tp,
                    pp,
                    layers_per_stage,
                    false,
                );
            }
            LlmPhase::Decode => {
                self.build_decode_step(&mut graph, &cfg, local_batch, tp, pp, layers_per_stage);
            }
        }
        graph
    }

    /// Forward (and optionally backward) pass over `tokens_per_seq` tokens.
    #[allow(clippy::too_many_arguments)]
    fn build_dense_pass(
        &self,
        graph: &mut OperatorGraph,
        cfg: &LlamaConfig,
        local_batch: u64,
        tokens_per_seq: u64,
        tp: u64,
        pp: u64,
        layers_per_stage: u64,
        with_backward: bool,
    ) {
        let dt = self.dtype;
        let tokens = local_batch * tokens_per_seq;
        let heads_local = (cfg.num_heads / tp).max(1);
        let kv_heads_local = (cfg.num_kv_heads / tp).max(1);
        let ffn_local = (cfg.ffn_dim / tp).max(1);
        // Forward + backward passes: the backward pass performs roughly two
        // matmuls (input gradient and weight gradient) per forward matmul.
        let passes: &[(&str, u64)] =
            if with_backward { &[("fwd", 1), ("bwd", 2)] } else { &[("fwd", 1)] };

        // Input embedding lookup on the first stage.
        graph.push(Operator::new(
            "embed_lookup",
            OpKind::EmbeddingLookup {
                lookups: tokens,
                dim: cfg.hidden,
                table_bytes: cfg.vocab_size * cfg.hidden * dt.size_bytes(),
            },
            dt,
        ));

        for layer in 0..layers_per_stage {
            for &(pass, mults) in passes {
                for rep in 0..mults {
                    let tag = if mults > 1 { format!("{pass}{rep}") } else { pass.to_string() };
                    self.push_layer(
                        graph,
                        cfg,
                        &tag,
                        layer,
                        tokens,
                        tokens_per_seq,
                        heads_local,
                        kv_heads_local,
                        ffn_local,
                        tp,
                    );
                }
            }
        }

        // Final LM head on the last stage (forward only; its backward is
        // folded into the pass multiplier above for simplicity).
        graph.push(Operator::new(
            "lm_head",
            OpKind::MatMul {
                batch: 1,
                m: tokens,
                k: cfg.hidden,
                n: (cfg.vocab_size / tp).max(1),
                weights_resident: true,
            },
            dt,
        ));

        // Pipeline activation transfer to the next stage.
        if pp > 1 {
            graph.push(Operator::new(
                "pp_send_activations",
                OpKind::Collective {
                    kind: CollectiveKind::PointToPoint,
                    bytes_per_chip: tokens * cfg.hidden * dt.size_bytes(),
                },
                dt,
            ));
        }
    }

    /// One transformer layer over `tokens` tokens (self-attention + FFN).
    #[allow(clippy::too_many_arguments)]
    fn push_layer(
        &self,
        graph: &mut OperatorGraph,
        cfg: &LlamaConfig,
        tag: &str,
        layer: u64,
        tokens: u64,
        seq: u64,
        heads_local: u64,
        kv_heads_local: u64,
        ffn_local: u64,
        tp: u64,
    ) {
        let dt = self.dtype;
        let batch_seqs = (tokens / seq).max(1);
        let prefix = format!("layer{layer}.{tag}");

        graph.push(Operator::new(
            format!("{prefix}.input_norm"),
            OpKind::LayerNorm { rows: tokens, cols: cfg.hidden },
            dt,
        ));
        // Fused QKV projection.
        let qkv_cols = (heads_local + 2 * kv_heads_local) * cfg.head_dim;
        graph.push(Operator::new(
            format!("{prefix}.qkv_proj"),
            OpKind::MatMul {
                batch: 1,
                m: tokens,
                k: cfg.hidden,
                n: qkv_cols,
                weights_resident: true,
            },
            dt,
        ));
        // Attention scores: one matmul per (sequence, head).
        graph.push(Operator::new(
            format!("{prefix}.attn_scores"),
            OpKind::MatMul {
                batch: batch_seqs * heads_local,
                m: seq,
                k: cfg.head_dim,
                n: seq,
                weights_resident: false,
            },
            dt,
        ));
        graph.push(Operator::new(
            format!("{prefix}.attn_softmax"),
            OpKind::Softmax { rows: batch_seqs * heads_local * seq, cols: seq },
            dt,
        ));
        graph.push(Operator::new(
            format!("{prefix}.attn_context"),
            OpKind::MatMul {
                batch: batch_seqs * heads_local,
                m: seq,
                k: seq,
                n: cfg.head_dim,
                weights_resident: false,
            },
            dt,
        ));
        graph.push(Operator::new(
            format!("{prefix}.out_proj"),
            OpKind::MatMul {
                batch: 1,
                m: tokens,
                k: heads_local * cfg.head_dim,
                n: cfg.hidden,
                weights_resident: true,
            },
            dt,
        ));
        if tp > 1 {
            graph.push(Operator::new(
                format!("{prefix}.attn_allreduce"),
                OpKind::Collective {
                    kind: CollectiveKind::AllReduce,
                    bytes_per_chip: tokens * cfg.hidden * dt.size_bytes(),
                },
                dt,
            ));
        }
        graph.push(Operator::new(
            format!("{prefix}.post_norm"),
            OpKind::LayerNorm { rows: tokens, cols: cfg.hidden },
            dt,
        ));
        // SwiGLU FFN: gate and up projections, elementwise activation, down projection.
        graph.push(Operator::new(
            format!("{prefix}.ffn_gate"),
            OpKind::MatMul {
                batch: 1,
                m: tokens,
                k: cfg.hidden,
                n: ffn_local,
                weights_resident: true,
            },
            dt,
        ));
        graph.push(Operator::new(
            format!("{prefix}.ffn_up"),
            OpKind::MatMul {
                batch: 1,
                m: tokens,
                k: cfg.hidden,
                n: ffn_local,
                weights_resident: true,
            },
            dt,
        ));
        graph.push(Operator::new(
            format!("{prefix}.ffn_silu_mul"),
            OpKind::Elementwise {
                elements: tokens * ffn_local,
                flops_per_element: 5,
                num_inputs: 2,
            },
            dt,
        ));
        graph.push(Operator::new(
            format!("{prefix}.ffn_down"),
            OpKind::MatMul {
                batch: 1,
                m: tokens,
                k: ffn_local,
                n: cfg.hidden,
                weights_resident: true,
            },
            dt,
        ));
        if tp > 1 {
            graph.push(Operator::new(
                format!("{prefix}.ffn_allreduce"),
                OpKind::Collective {
                    kind: CollectiveKind::AllReduce,
                    bytes_per_chip: tokens * cfg.hidden * dt.size_bytes(),
                },
                dt,
            ));
        }
        graph.push(Operator::new(
            format!("{prefix}.residual_add"),
            OpKind::Elementwise {
                elements: tokens * cfg.hidden,
                flops_per_element: 1,
                num_inputs: 2,
            },
            dt,
        ));
    }

    /// One auto-regressive decode step (one output token per request).
    fn build_decode_step(
        &self,
        graph: &mut OperatorGraph,
        cfg: &LlamaConfig,
        local_batch: u64,
        tp: u64,
        pp: u64,
        layers_per_stage: u64,
    ) {
        let dt = self.dtype;
        let context = self.seq_len + self.output_len / 2; // average context during decoding
        let heads_local = (cfg.num_heads / tp).max(1);
        let kv_heads_local = (cfg.num_kv_heads / tp).max(1);
        let ffn_local = (cfg.ffn_dim / tp).max(1);
        let tokens = local_batch; // one new token per request

        for layer in 0..layers_per_stage {
            let prefix = format!("layer{layer}.decode");
            graph.push(Operator::new(
                format!("{prefix}.input_norm"),
                OpKind::LayerNorm { rows: tokens, cols: cfg.hidden },
                dt,
            ));
            let qkv_cols = (heads_local + 2 * kv_heads_local) * cfg.head_dim;
            graph.push(Operator::new(
                format!("{prefix}.qkv_proj"),
                OpKind::MatMul {
                    batch: 1,
                    m: tokens,
                    k: cfg.hidden,
                    n: qkv_cols,
                    weights_resident: true,
                },
                dt,
            ));
            // Attention over the KV cache: the cache acts as the (large)
            // second operand and is streamed from HBM.
            graph.push(Operator::new(
                format!("{prefix}.attn_scores"),
                OpKind::MatMul {
                    batch: local_batch * heads_local,
                    m: 1,
                    k: cfg.head_dim,
                    n: context,
                    weights_resident: false,
                },
                dt,
            ));
            graph.push(Operator::new(
                format!("{prefix}.attn_softmax"),
                OpKind::Softmax { rows: local_batch * heads_local, cols: context },
                dt,
            ));
            graph.push(Operator::new(
                format!("{prefix}.attn_context"),
                OpKind::MatMul {
                    batch: local_batch * heads_local,
                    m: 1,
                    k: context,
                    n: cfg.head_dim,
                    weights_resident: false,
                },
                dt,
            ));
            graph.push(Operator::new(
                format!("{prefix}.out_proj"),
                OpKind::MatMul {
                    batch: 1,
                    m: tokens,
                    k: heads_local * cfg.head_dim,
                    n: cfg.hidden,
                    weights_resident: true,
                },
                dt,
            ));
            if tp > 1 {
                graph.push(Operator::new(
                    format!("{prefix}.attn_allreduce"),
                    OpKind::Collective {
                        kind: CollectiveKind::AllReduce,
                        bytes_per_chip: tokens * cfg.hidden * dt.size_bytes(),
                    },
                    dt,
                ));
            }
            graph.push(Operator::new(
                format!("{prefix}.ffn_gate"),
                OpKind::MatMul {
                    batch: 1,
                    m: tokens,
                    k: cfg.hidden,
                    n: ffn_local,
                    weights_resident: true,
                },
                dt,
            ));
            graph.push(Operator::new(
                format!("{prefix}.ffn_up"),
                OpKind::MatMul {
                    batch: 1,
                    m: tokens,
                    k: cfg.hidden,
                    n: ffn_local,
                    weights_resident: true,
                },
                dt,
            ));
            graph.push(Operator::new(
                format!("{prefix}.ffn_silu_mul"),
                OpKind::Elementwise {
                    elements: tokens * ffn_local,
                    flops_per_element: 5,
                    num_inputs: 2,
                },
                dt,
            ));
            graph.push(Operator::new(
                format!("{prefix}.ffn_down"),
                OpKind::MatMul {
                    batch: 1,
                    m: tokens,
                    k: ffn_local,
                    n: cfg.hidden,
                    weights_resident: true,
                },
                dt,
            ));
            if tp > 1 {
                graph.push(Operator::new(
                    format!("{prefix}.ffn_allreduce"),
                    OpKind::Collective {
                        kind: CollectiveKind::AllReduce,
                        bytes_per_chip: tokens * cfg.hidden * dt.size_bytes(),
                    },
                    dt,
                ));
            }
        }
        // LM head for the new token.
        graph.push(Operator::new(
            "lm_head",
            OpKind::MatMul {
                batch: 1,
                m: tokens,
                k: cfg.hidden,
                n: (cfg.vocab_size / tp).max(1),
                weights_resident: true,
            },
            dt,
        ));
        if pp > 1 {
            graph.push(Operator::new(
                "pp_send_activations",
                OpKind::Collective {
                    kind: CollectiveKind::PointToPoint,
                    bytes_per_chip: tokens * cfg.hidden * dt.size_bytes(),
                },
                dt,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ExecutionUnit;

    #[test]
    fn param_counts_are_close_to_nominal() {
        let p8 = LlamaModel::Llama3_8B.config().param_count() as f64 / 1e9;
        let p13 = LlamaModel::Llama2_13B.config().param_count() as f64 / 1e9;
        let p70 = LlamaModel::Llama3_70B.config().param_count() as f64 / 1e9;
        let p405 = LlamaModel::Llama3_405B.config().param_count() as f64 / 1e9;
        assert!((7.0..9.5).contains(&p8), "8B model has {p8}B params");
        assert!((11.5..14.5).contains(&p13), "13B model has {p13}B params");
        assert!((63.0..76.0).contains(&p70), "70B model has {p70}B params");
        assert!((380.0..430.0).contains(&p405), "405B model has {p405}B params");
    }

    #[test]
    fn prefill_is_compute_bound_decode_is_memory_bound() {
        let prefill = LlmWorkload::default_config(LlamaModel::Llama3_8B, LlmPhase::Prefill)
            .build_graph(&ParallelismConfig::single());
        let decode = LlmWorkload::default_config(LlamaModel::Llama3_8B, LlmPhase::Decode)
            .build_graph(&ParallelismConfig::single());
        let prefill_ai = prefill.total_flops() / prefill.total_hbm_bytes();
        let decode_ai = decode.total_flops() / decode.total_hbm_bytes();
        assert!(prefill_ai > 200.0, "prefill arithmetic intensity {prefill_ai}");
        assert!(decode_ai < 5.0, "decode arithmetic intensity {decode_ai}");
    }

    #[test]
    fn training_has_roughly_3x_prefill_flops_per_token() {
        let cfgp = LlmWorkload::default_config(LlamaModel::Llama2_13B, LlmPhase::Prefill);
        let prefill = cfgp.build_graph(&ParallelismConfig::single());
        let mut train_cfg = LlmWorkload::default_config(LlamaModel::Llama2_13B, LlmPhase::Training);
        train_cfg.batch = 1; // same token count as the prefill request
        let train = train_cfg.build_graph(&ParallelismConfig::single());
        let ratio = train.total_flops() / prefill.total_flops();
        assert!((2.5..3.6).contains(&ratio), "train/prefill FLOP ratio {ratio}");
    }

    #[test]
    fn tensor_parallelism_adds_allreduces_and_shrinks_local_flops() {
        let wl = LlmWorkload::default_config(LlamaModel::Llama3_70B, LlmPhase::Prefill);
        let single = wl.build_graph(&ParallelismConfig::single());
        let tp8 = wl.build_graph(&ParallelismConfig::new(1, 8, 1));
        assert_eq!(single.total_ici_bytes(), 0.0);
        assert!(tp8.total_ici_bytes() > 0.0);
        let ratio = single.total_flops() / tp8.total_flops();
        assert!((4.0..9.0).contains(&ratio), "TP8 should cut local FLOPs ~8x, got {ratio}");
    }

    #[test]
    fn pipeline_parallelism_shards_layers() {
        let wl = LlmWorkload::default_config(LlamaModel::Llama3_70B, LlmPhase::Prefill);
        let single = wl.build_graph(&ParallelismConfig::single());
        let pp4 = wl.build_graph(&ParallelismConfig::new(1, 1, 4));
        assert!(pp4.len() < single.len());
        let ratio = single.total_flops() / pp4.total_flops();
        assert!((3.0..5.0).contains(&ratio), "PP4 should cut local FLOPs ~4x, got {ratio}");
        // P2P send appears.
        assert!(pp4.iter().any(|op| op.name.contains("pp_send")));
    }

    #[test]
    fn decode_attention_uses_small_m() {
        let wl = LlmWorkload::default_config(LlamaModel::Llama3_70B, LlmPhase::Decode);
        let graph = wl.build_graph(&ParallelismConfig::new(1, 8, 1));
        let scores = graph.iter().find(|op| op.name.contains("attn_scores")).unwrap();
        let (m, _k, n) = scores.matmul_dims().unwrap();
        assert_eq!(m, 1);
        assert!(n > 4000);
    }

    #[test]
    fn training_includes_gradient_allreduce_with_dp() {
        let wl = LlmWorkload::default_config(LlamaModel::Llama3_8B, LlmPhase::Training);
        let dp4 = wl.build_graph(&ParallelismConfig::new(4, 1, 1));
        assert!(dp4.iter().any(|op| &*op.name == "grad_allreduce"));
        let single = wl.build_graph(&ParallelismConfig::single());
        assert!(!single.iter().any(|op| &*op.name == "grad_allreduce"));
    }

    #[test]
    fn kv_cache_and_weight_footprints() {
        let cfg = LlamaModel::Llama3_70B.config();
        let weights_gib = cfg.weight_bytes(DataType::Bf16) as f64 / (1u64 << 30) as f64;
        assert!((120.0..150.0).contains(&weights_gib), "70B bf16 weights {weights_gib} GiB");
        assert!(cfg.kv_cache_bytes_per_token(DataType::Bf16) > 0);
    }

    #[test]
    fn graphs_contain_expected_operator_mix() {
        let wl = LlmWorkload::default_config(LlamaModel::Llama3_8B, LlmPhase::Prefill);
        let g = wl.build_graph(&ParallelismConfig::single());
        assert!(g.count_by_unit(ExecutionUnit::Sa) > 100);
        assert!(g.count_by_unit(ExecutionUnit::Vu) > 100);
        assert_eq!(g.count_by_unit(ExecutionUnit::Ici), 0);
        assert!(g.iter().any(|op| op.name.contains("attn_softmax")));
        assert!(g.iter().any(|op| op.name.contains("ffn_down")));
    }

    #[test]
    fn forward_flops_estimate_matches_graph() {
        let wl = LlmWorkload::default_config(LlamaModel::Llama3_8B, LlmPhase::Prefill);
        let g = wl.build_graph(&ParallelismConfig::single());
        let est = LlamaModel::Llama3_8B.config().forward_flops(4096, 4096);
        let ratio = g.total_flops() / est;
        assert!((0.7..1.3).contains(&ratio), "graph/estimate FLOP ratio {ratio}");
    }

    #[test]
    fn labels() {
        assert_eq!(LlamaModel::Llama3_405B.label(), "405B");
        assert_eq!(LlamaModel::Llama3_405B.to_string(), "Llama3.1-405B");
        assert_eq!(LlmPhase::Decode.to_string(), "Decode");
    }
}
