//! Tensor operators: the unit of work the compiler tiles and the simulator
//! executes.
//!
//! Each operator carries its exact shape so that FLOPs, HBM traffic, ICI
//! traffic, and the matmul dimensions relevant to systolic-array spatial
//! utilization (paper Figure 10) can be derived without approximation.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::dtype::DataType;

/// Kind of inter-chip collective operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// All-reduce (sum) across the participating chips.
    AllReduce,
    /// Reduce-scatter across the participating chips.
    ReduceScatter,
    /// All-gather across the participating chips.
    AllGather,
    /// All-to-all personalized exchange (DLRM embedding exchange).
    AllToAll,
    /// Point-to-point send/receive between pipeline stages.
    PointToPoint,
}

impl CollectiveKind {
    /// Short label used in traces and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CollectiveKind::AllReduce => "AllReduce",
            CollectiveKind::ReduceScatter => "ReduceScatter",
            CollectiveKind::AllGather => "AllGather",
            CollectiveKind::AllToAll => "AllToAll",
            CollectiveKind::PointToPoint => "P2P",
        }
    }
}

impl std::fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which hardware component primarily executes an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecutionUnit {
    /// Systolic array (matrix multiplications, convolutions).
    Sa,
    /// Vector unit (elementwise, softmax, layernorm, small matmuls).
    Vu,
    /// HBM/DMA dominated (embedding gathers).
    Hbm,
    /// Inter-chip interconnect (collectives).
    Ici,
}

/// Shape-carrying operator kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OpKind {
    /// Batched dense matrix multiplication `[batch, m, k] × [k, n]`.
    ///
    /// `weights_resident` marks the `[k, n]` operand as model weights (read
    /// from HBM once per operator) rather than activations.
    MatMul {
        /// Batch dimension (number of independent matmuls).
        batch: u64,
        /// Rows of the left operand.
        m: u64,
        /// Contraction dimension.
        k: u64,
        /// Columns of the right operand.
        n: u64,
        /// Whether the right operand is model weights.
        weights_resident: bool,
    },
    /// 2-D convolution expressed by its output extent and filter shape.
    Conv2d {
        /// Batch size.
        batch: u64,
        /// Output height.
        h_out: u64,
        /// Output width.
        w_out: u64,
        /// Input channels.
        c_in: u64,
        /// Output channels.
        c_out: u64,
        /// Filter height.
        kh: u64,
        /// Filter width.
        kw: u64,
    },
    /// Elementwise vector operation over `elements` elements with
    /// `flops_per_element` arithmetic operations each and `num_inputs`
    /// input tensors (e.g. add = 2 inputs, GeLU = 1 input).
    Elementwise {
        /// Number of output elements.
        elements: u64,
        /// FLOPs performed per output element.
        flops_per_element: u64,
        /// Number of input tensors of the same shape.
        num_inputs: u64,
    },
    /// Row-wise softmax over a `[rows, cols]` matrix.
    Softmax {
        /// Number of rows (softmax instances).
        rows: u64,
        /// Number of columns (softmax width).
        cols: u64,
    },
    /// Row-wise layer normalization over a `[rows, cols]` matrix.
    LayerNorm {
        /// Number of rows.
        rows: u64,
        /// Number of columns (hidden dimension).
        cols: u64,
    },
    /// Sparse embedding-table lookup: `lookups` rows of `dim` elements are
    /// gathered from a table of `table_bytes` bytes resident in HBM.
    EmbeddingLookup {
        /// Number of rows gathered.
        lookups: u64,
        /// Embedding dimension (elements per row).
        dim: u64,
        /// Total size of the embedding table in bytes.
        table_bytes: u64,
    },
    /// Inter-chip collective transferring `bytes_per_chip` bytes per chip.
    Collective {
        /// Collective algorithm.
        kind: CollectiveKind,
        /// Payload bytes contributed by each chip.
        bytes_per_chip: u64,
    },
}

/// A tensor operator with a name, shape-carrying kind, and data type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Operator {
    /// Position in the operator graph (assigned by [`crate::OperatorGraph`]).
    pub id: usize,
    /// Human-readable name, e.g. `"layer3.attn.qk_matmul"`. Shared, not
    /// owned: cloning an operator (graph concatenation, compilation,
    /// the simulator's per-anchor records) copies a pointer, never the
    /// string.
    pub name: Arc<str>,
    /// Shape-carrying kind.
    pub kind: OpKind,
    /// Element data type.
    pub dtype: DataType,
}

impl Operator {
    /// Creates an operator with id 0 (the graph assigns the real id).
    #[must_use]
    pub fn new(name: impl Into<Arc<str>>, kind: OpKind, dtype: DataType) -> Self {
        Operator { id: 0, name: name.into(), kind, dtype }
    }

    /// Floating-point operations performed by the operator.
    #[must_use]
    pub fn flops(&self) -> f64 {
        match self.kind {
            OpKind::MatMul { batch, m, k, n, .. } => 2.0 * (batch * m * k * n) as f64,
            OpKind::Conv2d { batch, h_out, w_out, c_in, c_out, kh, kw } => {
                2.0 * (batch * h_out * w_out * c_out) as f64 * (c_in * kh * kw) as f64
            }
            OpKind::Elementwise { elements, flops_per_element, .. } => {
                (elements * flops_per_element) as f64
            }
            // exp + sub + sum + div ≈ 5 flops per element.
            OpKind::Softmax { rows, cols } => 5.0 * (rows * cols) as f64,
            // mean, variance, normalize, scale+shift ≈ 8 flops per element.
            OpKind::LayerNorm { rows, cols } => 8.0 * (rows * cols) as f64,
            // Gather itself performs no arithmetic; pooling (sum) counts one
            // add per gathered element.
            OpKind::EmbeddingLookup { lookups, dim, .. } => (lookups * dim) as f64,
            OpKind::Collective { .. } => 0.0,
        }
    }

    /// Minimum bytes read from HBM by the operator (inputs + weights once).
    #[must_use]
    pub fn hbm_read_bytes(&self) -> u64 {
        let dt = self.dtype.size_bytes();
        match self.kind {
            OpKind::MatMul { batch, m, k, n, weights_resident } => {
                let lhs = batch * m * k * dt;
                let rhs = if weights_resident { k * n * dt } else { batch * k * n * dt };
                lhs + rhs
            }
            OpKind::Conv2d { batch, h_out, w_out, c_in, c_out, kh, kw } => {
                // Input activations (approximated by the output extent) plus filters.
                batch * h_out * w_out * c_in * dt + c_out * c_in * kh * kw * dt
            }
            OpKind::Elementwise { elements, num_inputs, .. } => elements * num_inputs * dt,
            OpKind::Softmax { rows, cols } | OpKind::LayerNorm { rows, cols } => rows * cols * dt,
            OpKind::EmbeddingLookup { lookups, dim, .. } => lookups * dim * dt,
            OpKind::Collective { .. } => 0,
        }
    }

    /// Minimum bytes written back to HBM by the operator.
    #[must_use]
    pub fn hbm_write_bytes(&self) -> u64 {
        let dt = self.dtype.size_bytes();
        match self.kind {
            OpKind::MatMul { batch, m, n, .. } => batch * m * n * dt,
            OpKind::Conv2d { batch, h_out, w_out, c_out, .. } => batch * h_out * w_out * c_out * dt,
            OpKind::Elementwise { elements, .. } => elements * dt,
            OpKind::Softmax { rows, cols } | OpKind::LayerNorm { rows, cols } => rows * cols * dt,
            OpKind::EmbeddingLookup { lookups, dim, .. } => lookups * dim * dt,
            OpKind::Collective { .. } => 0,
        }
    }

    /// Total HBM traffic (reads + writes) in bytes.
    #[must_use]
    pub fn hbm_bytes(&self) -> u64 {
        self.hbm_read_bytes() + self.hbm_write_bytes()
    }

    /// Bytes sent over the ICI by each chip (zero for non-collectives).
    #[must_use]
    pub fn ici_bytes(&self) -> u64 {
        match self.kind {
            OpKind::Collective { bytes_per_chip, .. } => bytes_per_chip,
            _ => 0,
        }
    }

    /// Arithmetic intensity in FLOPs per HBM byte (infinite for pure
    /// collectives, which touch no HBM in this model).
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.hbm_bytes();
        if bytes == 0 {
            return f64::INFINITY;
        }
        self.flops() / bytes as f64
    }

    /// The matrix-multiplication dimensions `(m, k, n)` seen by a systolic
    /// array, if the operator maps to one. Convolutions are lowered with
    /// im2col (`m = batch·h·w`, `k = c_in·kh·kw`, `n = c_out`).
    #[must_use]
    pub fn matmul_dims(&self) -> Option<(u64, u64, u64)> {
        match self.kind {
            OpKind::MatMul { m, k, n, .. } => Some((m, k, n)),
            OpKind::Conv2d { batch, h_out, w_out, c_in, c_out, kh, kw } => {
                Some((batch * h_out * w_out, c_in * kh * kw, c_out))
            }
            _ => None,
        }
    }

    /// Batch count of independent matmuls mapped to the SA (1 for conv).
    #[must_use]
    pub fn matmul_batch(&self) -> u64 {
        match self.kind {
            OpKind::MatMul { batch, .. } => batch,
            OpKind::Conv2d { .. } => 1,
            _ => 0,
        }
    }

    /// Which component executes the operator.
    ///
    /// Small matrix multiplications whose `M` dimension cannot amortize the
    /// systolic-array warm-up latency (the paper notes that decode-time
    /// embedding tensors are "typically too small to amortize the systolic
    /// array warm-up latency, so MatMuls may be mapped to the VU") are
    /// assigned to the VU when `M` is below `sa_width / 4`.
    #[must_use]
    pub fn execution_unit_for(&self, sa_width: u64) -> ExecutionUnit {
        match self.kind {
            OpKind::MatMul { .. } | OpKind::Conv2d { .. } => {
                if let Some((m, _k, _n)) = self.matmul_dims() {
                    let threshold = (sa_width / 4).max(1);
                    if m < threshold {
                        return ExecutionUnit::Vu;
                    }
                }
                ExecutionUnit::Sa
            }
            OpKind::Elementwise { .. } | OpKind::Softmax { .. } | OpKind::LayerNorm { .. } => {
                ExecutionUnit::Vu
            }
            OpKind::EmbeddingLookup { .. } => ExecutionUnit::Hbm,
            OpKind::Collective { .. } => ExecutionUnit::Ici,
        }
    }

    /// Default execution unit assuming a 128-wide systolic array.
    #[must_use]
    pub fn execution_unit(&self) -> ExecutionUnit {
        self.execution_unit_for(128)
    }

    /// Whether the operator is an inter-chip collective.
    #[must_use]
    pub fn is_collective(&self) -> bool {
        matches!(self.kind, OpKind::Collective { .. })
    }
}

impl std::fmt::Display for Operator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{} {} ({:?})", self.id, self.name, self.execution_unit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul(m: u64, k: u64, n: u64) -> Operator {
        Operator::new(
            "mm",
            OpKind::MatMul { batch: 1, m, k, n, weights_resident: true },
            DataType::Bf16,
        )
    }

    #[test]
    fn matmul_flops_and_bytes() {
        let op = matmul(128, 256, 512);
        assert_eq!(op.flops(), 2.0 * 128.0 * 256.0 * 512.0);
        // reads: 128*256*2 + 256*512*2 ; writes: 128*512*2
        assert_eq!(op.hbm_read_bytes(), 128 * 256 * 2 + 256 * 512 * 2);
        assert_eq!(op.hbm_write_bytes(), 128 * 512 * 2);
        assert_eq!(op.matmul_dims(), Some((128, 256, 512)));
        assert_eq!(op.execution_unit(), ExecutionUnit::Sa);
    }

    #[test]
    fn activation_matmul_reads_both_operands_per_batch() {
        let op = Operator::new(
            "attn_scores",
            OpKind::MatMul { batch: 32, m: 128, k: 64, n: 128, weights_resident: false },
            DataType::Bf16,
        );
        assert_eq!(op.hbm_read_bytes(), 32 * (128 * 64 + 64 * 128) * 2);
    }

    #[test]
    fn conv_lowered_to_matmul_dims() {
        let op = Operator::new(
            "conv",
            OpKind::Conv2d { batch: 2, h_out: 32, w_out: 32, c_in: 64, c_out: 128, kh: 3, kw: 3 },
            DataType::Bf16,
        );
        assert_eq!(op.matmul_dims(), Some((2 * 32 * 32, 64 * 9, 128)));
        assert_eq!(op.execution_unit(), ExecutionUnit::Sa);
        assert!(op.flops() > 0.0);
    }

    #[test]
    fn tiny_matmul_maps_to_vu() {
        let op = matmul(8, 16, 8);
        assert_eq!(op.execution_unit(), ExecutionUnit::Vu);
        // With a smaller SA it would still be an SA op.
        assert_eq!(op.execution_unit_for(16), ExecutionUnit::Sa);
    }

    #[test]
    fn vector_ops_map_to_vu() {
        let sm = Operator::new("softmax", OpKind::Softmax { rows: 64, cols: 4096 }, DataType::Bf16);
        assert_eq!(sm.execution_unit(), ExecutionUnit::Vu);
        assert_eq!(sm.flops(), 5.0 * 64.0 * 4096.0);
        let ln = Operator::new("ln", OpKind::LayerNorm { rows: 64, cols: 8192 }, DataType::Bf16);
        assert_eq!(ln.execution_unit(), ExecutionUnit::Vu);
        assert_eq!(ln.hbm_read_bytes(), ln.hbm_write_bytes());
    }

    #[test]
    fn embedding_lookup_is_hbm_bound() {
        let op = Operator::new(
            "emb",
            OpKind::EmbeddingLookup { lookups: 1024, dim: 128, table_bytes: 20 << 30 },
            DataType::F32,
        );
        assert_eq!(op.execution_unit(), ExecutionUnit::Hbm);
        assert!(op.arithmetic_intensity() < 1.0);
        assert_eq!(op.hbm_read_bytes(), 1024 * 128 * 4);
    }

    #[test]
    fn collectives_only_touch_ici() {
        let op = Operator::new(
            "ar",
            OpKind::Collective { kind: CollectiveKind::AllReduce, bytes_per_chip: 1 << 20 },
            DataType::Bf16,
        );
        assert_eq!(op.execution_unit(), ExecutionUnit::Ici);
        assert_eq!(op.hbm_bytes(), 0);
        assert_eq!(op.ici_bytes(), 1 << 20);
        assert_eq!(op.flops(), 0.0);
        assert!(op.arithmetic_intensity().is_infinite());
        assert!(op.is_collective());
    }

    #[test]
    fn arithmetic_intensity_ordering() {
        // A large square matmul is compute-bound; an elementwise op is not.
        let mm = matmul(4096, 4096, 4096);
        let ew = Operator::new(
            "add",
            OpKind::Elementwise { elements: 1 << 20, flops_per_element: 1, num_inputs: 2 },
            DataType::Bf16,
        );
        assert!(mm.arithmetic_intensity() > 100.0);
        assert!(ew.arithmetic_intensity() < 1.0);
    }

    #[test]
    fn collective_labels() {
        assert_eq!(CollectiveKind::AllReduce.to_string(), "AllReduce");
        assert_eq!(CollectiveKind::PointToPoint.label(), "P2P");
    }
}
