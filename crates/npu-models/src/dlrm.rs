//! Deep-learning recommendation model (DLRM) workload generator.
//!
//! DLRM inference (paper Table 1: DLRM-S/M/L with 20/45/98 GB embedding
//! tables, batch size 1024) consists of a bottom MLP over dense features,
//! sparse embedding-table lookups, an all-to-all exchange of embedding
//! vectors across the chips that hold the (model-parallel) tables, a
//! feature-interaction step, and a top MLP. The workload is ICI- and
//! HBM-bound: the paper measures ~98–99% ICI temporal utilization and ~0%
//! SA temporal utilization for it (Figures 4 and 8).

use serde::{Deserialize, Serialize};

use npu_arch::ParallelismConfig;

use crate::dtype::DataType;
use crate::graph::OperatorGraph;
use crate::op::{CollectiveKind, OpKind, Operator};

/// DLRM model size (embedding-table footprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DlrmSize {
    /// DLRM-S: 20 GB of embedding tables.
    Small,
    /// DLRM-M: 45 GB of embedding tables.
    Medium,
    /// DLRM-L: 98 GB of embedding tables.
    Large,
}

impl DlrmSize {
    /// All sizes.
    pub const ALL: [DlrmSize; 3] = [DlrmSize::Small, DlrmSize::Medium, DlrmSize::Large];

    /// Label used in figures ("DLRM-S", …).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DlrmSize::Small => "DLRM-S",
            DlrmSize::Medium => "DLRM-M",
            DlrmSize::Large => "DLRM-L",
        }
    }

    /// Total embedding-table footprint in bytes (Table 1).
    #[must_use]
    pub fn embedding_table_bytes(self) -> u64 {
        match self {
            DlrmSize::Small => 20 * (1 << 30),
            DlrmSize::Medium => 45 * (1 << 30),
            DlrmSize::Large => 98 * (1 << 30),
        }
    }
}

impl std::fmt::Display for DlrmSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Full DLRM architecture and workload configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DlrmConfig {
    /// Model size.
    pub size: DlrmSize,
    /// Inference batch size (Table 1 default: 1024).
    pub batch: u64,
    /// Number of sparse features (embedding tables).
    pub num_tables: u64,
    /// Embedding dimension of each table row.
    pub embedding_dim: u64,
    /// Multi-hot lookups per table per sample.
    pub lookups_per_table: u64,
    /// Number of dense (continuous) input features.
    pub dense_features: u64,
    /// Bottom-MLP layer widths.
    pub bottom_mlp: [u64; 3],
    /// Top-MLP layer widths.
    pub top_mlp: [u64; 4],
    /// Compute data type.
    pub dtype: DataType,
}

impl DlrmConfig {
    /// Default configuration from Table 1 for a given size.
    #[must_use]
    pub fn default_config(size: DlrmSize) -> Self {
        DlrmConfig {
            size,
            batch: 1024,
            num_tables: match size {
                DlrmSize::Small => 26,
                DlrmSize::Medium => 64,
                DlrmSize::Large => 128,
            },
            embedding_dim: 128,
            lookups_per_table: match size {
                DlrmSize::Small => 1,
                DlrmSize::Medium => 2,
                DlrmSize::Large => 4,
            },
            dense_features: 13,
            bottom_mlp: [512, 256, 128],
            top_mlp: [1024, 1024, 512, 256],
            dtype: DataType::Bf16,
        }
    }

    /// Returns a copy with a different batch size.
    #[must_use]
    pub fn with_batch(mut self, batch: u64) -> Self {
        self.batch = batch;
        self
    }

    /// Builds the per-chip operator graph for one inference batch.
    ///
    /// Embedding tables are sharded across all chips (model parallelism for
    /// the tables, data parallelism for the MLPs — the standard DLRM
    /// deployment): each chip looks up its local tables for the *entire*
    /// batch and then exchanges embedding vectors with an all-to-all so each
    /// chip ends up with all features for its share of the batch.
    ///
    /// The graph is a true DAG, not a chain: the bottom MLP and each local
    /// table's gather→pool pair are *independent subgraphs* (the gathers
    /// are sources — they depend only on their HBM-resident table), the
    /// all-to-all fans in over every pooled table, and the feature
    /// interaction joins the exchanged embeddings with the bottom-MLP
    /// output. This is what lets the timeline engine stream gathers while
    /// the MLP computes instead of serializing them.
    ///
    /// # Panics
    ///
    /// Panics if the configuration carries an empty bottom MLP; every
    /// constructor in this crate builds at least one layer.
    #[must_use]
    pub fn build_graph(&self, parallelism: &ParallelismConfig) -> OperatorGraph {
        let chips = parallelism.num_chips() as u64;
        let dt = self.dtype;
        let mut graph =
            OperatorGraph::new(format!("{}-b{}-{}", self.size.label(), self.batch, parallelism));

        let local_batch = (self.batch / chips).max(1);
        let local_tables = (self.num_tables / chips).max(1);

        // Bottom MLP over dense features for the local share of the batch.
        let mut prev = self.dense_features;
        let mut bottom_tail = None;
        for (i, &width) in self.bottom_mlp.iter().enumerate() {
            let mm = Operator::new(
                format!("bottom_mlp.{i}"),
                OpKind::MatMul {
                    batch: 1,
                    m: local_batch,
                    k: prev,
                    n: width,
                    weights_resident: true,
                },
                dt,
            );
            let mm_id = match bottom_tail {
                None => graph.push_source(mm),
                Some(tail) => graph.push_with_producers(mm, vec![tail]),
            };
            bottom_tail = Some(graph.push_with_producers(
                Operator::new(
                    format!("bottom_mlp.{i}.relu"),
                    OpKind::Elementwise {
                        elements: local_batch * width,
                        flops_per_element: 1,
                        num_inputs: 1,
                    },
                    dt,
                ),
                vec![mm_id],
            ));
            prev = width;
        }
        let bottom_tail = bottom_tail.expect("the bottom MLP has at least one layer");

        // Per-table embedding lookups over the full batch (multi-hot:
        // `lookups_per_table` rows gathered and sum-pooled per table).
        // Each gather is a DAG source and each pool depends only on its
        // own gather, so the lookups overlap the bottom MLP and each
        // other's pooling.
        let table_bytes_per_chip = self.size.embedding_table_bytes() / chips.max(1);
        let table_bytes = table_bytes_per_chip / local_tables;
        let mut pools = Vec::with_capacity(local_tables as usize);
        for t in 0..local_tables {
            let gather = graph.push_source(Operator::new(
                format!("table.{t}.lookup"),
                OpKind::EmbeddingLookup {
                    lookups: self.batch * self.lookups_per_table,
                    dim: self.embedding_dim,
                    table_bytes,
                },
                dt,
            ));
            pools.push(graph.push_with_producers(
                Operator::new(
                    format!("table.{t}.pool"),
                    OpKind::Elementwise {
                        elements: self.batch * self.embedding_dim,
                        flops_per_element: self.lookups_per_table,
                        num_inputs: 1,
                    },
                    dt,
                ),
                vec![gather],
            ));
        }

        // All-to-all exchange of pooled embeddings (only if distributed):
        // a fan-in over every local table's pool.
        let embeddings_ready = if chips > 1 {
            let bytes = self.batch * local_tables * self.embedding_dim * dt.size_bytes();
            vec![graph.push_with_producers(
                Operator::new(
                    "embedding_alltoall",
                    OpKind::Collective { kind: CollectiveKind::AllToAll, bytes_per_chip: bytes },
                    dt,
                ),
                pools.clone(),
            )]
        } else {
            pools.clone()
        };

        // Feature interaction: pairwise dot products between the bottom-MLP
        // output and every table's embedding vector. Per sample this is a
        // `features × dim × features` activation-activation matmul — far
        // too small to amortize the systolic-array warm-up latency (the
        // paper's §4.3 note on tiny MatMuls being mapped to the VU) — so
        // it is lowered directly as batched vector dot products. The shape
        // keeps the FLOPs exact (`2·features²·dim` per sample) and the
        // input traffic exact (both `features × dim` operand tensors are
        // read, as `num_inputs: 2` over `features·dim` elements); the
        // write-back is approximated as one `features × dim` tile rather
        // than the `features²` pair matrix (equal at dim ≈ features,
        // i.e. DLRM-L; a few-percent traffic overstatement for the
        // smaller sizes, dwarfed by the gather traffic either way).
        let features = self.num_tables + 1;
        let mut interaction_inputs = embeddings_ready;
        interaction_inputs.push(bottom_tail);
        graph.push_with_producers(
            Operator::new(
                "interaction",
                OpKind::Elementwise {
                    elements: local_batch * features * self.embedding_dim,
                    flops_per_element: 2 * features,
                    num_inputs: 2,
                },
                dt,
            ),
            interaction_inputs,
        );
        graph.push(Operator::new(
            "interaction_concat",
            OpKind::Elementwise {
                elements: local_batch * (features * (features - 1) / 2 + self.bottom_mlp[2]),
                flops_per_element: 1,
                num_inputs: 2,
            },
            dt,
        ));

        // Top MLP.
        let mut prev = features * (features - 1) / 2 + self.bottom_mlp[2];
        for (i, &width) in self.top_mlp.iter().enumerate() {
            graph.push(Operator::new(
                format!("top_mlp.{i}"),
                OpKind::MatMul {
                    batch: 1,
                    m: local_batch,
                    k: prev,
                    n: width,
                    weights_resident: true,
                },
                dt,
            ));
            graph.push(Operator::new(
                format!("top_mlp.{i}.relu"),
                OpKind::Elementwise {
                    elements: local_batch * width,
                    flops_per_element: 1,
                    num_inputs: 1,
                },
                dt,
            ));
            prev = width;
        }
        // Final sigmoid click-through-rate prediction.
        graph.push(Operator::new(
            "ctr_sigmoid",
            OpKind::Elementwise { elements: local_batch, flops_per_element: 4, num_inputs: 1 },
            dt,
        ));
        graph
    }

    /// Minimum number of chips of `hbm_bytes_per_chip` HBM needed to hold
    /// the embedding tables (plus a 20% margin for activations and code).
    #[must_use]
    pub fn min_chips_for_capacity(&self, hbm_bytes_per_chip: u64) -> usize {
        let need = (self.size.embedding_table_bytes() as f64 * 1.2).ceil() as u64;
        (need.div_ceil(hbm_bytes_per_chip) as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::ExecutionUnit;
    use npu_arch::{NpuGeneration, NpuSpec};

    #[test]
    fn table1_embedding_sizes() {
        assert_eq!(DlrmSize::Small.embedding_table_bytes(), 20 << 30);
        assert_eq!(DlrmSize::Medium.embedding_table_bytes(), 45 << 30);
        assert_eq!(DlrmSize::Large.embedding_table_bytes(), 98 << 30);
        assert_eq!(DlrmSize::Large.label(), "DLRM-L");
    }

    #[test]
    fn dlrm_is_not_compute_bound() {
        let cfg = DlrmConfig::default_config(DlrmSize::Medium);
        let g = cfg.build_graph(&ParallelismConfig::new(8, 1, 1));
        let ai = g.total_flops() / g.total_hbm_bytes();
        assert!(ai < 50.0, "DLRM arithmetic intensity {ai} should be low");
    }

    #[test]
    fn distributed_dlrm_has_alltoall() {
        let cfg = DlrmConfig::default_config(DlrmSize::Small);
        let dist = cfg.build_graph(&ParallelismConfig::new(8, 1, 1));
        assert!(dist.iter().any(|op| &*op.name == "embedding_alltoall"));
        assert!(dist.total_ici_bytes() > 0.0);
        let single = cfg.build_graph(&ParallelismConfig::single());
        assert!(!single.iter().any(|op| &*op.name == "embedding_alltoall"));
    }

    #[test]
    fn interaction_maps_to_vu() {
        let cfg = DlrmConfig::default_config(DlrmSize::Small);
        let g = cfg.build_graph(&ParallelismConfig::new(8, 1, 1));
        let interaction = g.iter().find(|op| &*op.name == "interaction").unwrap();
        assert_eq!(interaction.execution_unit(), ExecutionUnit::Vu);
    }

    #[test]
    fn embedding_lookups_dominate_hbm_traffic() {
        let cfg = DlrmConfig::default_config(DlrmSize::Large);
        let g = cfg.build_graph(&ParallelismConfig::new(8, 1, 1));
        let emb: f64 = g
            .iter()
            .filter(|op| op.name.ends_with(".lookup"))
            .map(|op| op.hbm_bytes() as f64)
            .sum();
        assert!(emb > 0.3 * g.total_hbm_bytes());
    }

    #[test]
    fn graph_is_a_dag_with_parallel_gathers() {
        let cfg = DlrmConfig::default_config(DlrmSize::Medium);
        let g = cfg.build_graph(&ParallelismConfig::new(8, 1, 1));
        // One source per local table plus the bottom MLP head.
        let local_tables = (cfg.num_tables / 8) as usize;
        assert_eq!(g.sources().len(), local_tables + 1);
        // The all-to-all fans in over every pool.
        let a2a = g.iter().find(|op| &*op.name == "embedding_alltoall").unwrap();
        assert_eq!(g.producers_of(a2a.id).len(), local_tables);
        // The interaction joins the exchanged embeddings with the dense
        // branch (fan-in of 2).
        let interaction = g.iter().find(|op| &*op.name == "interaction").unwrap();
        assert_eq!(g.producers_of(interaction.id).len(), 2);
        // Still a valid topological order end to end.
        assert_eq!(g.topological_order().len(), g.len());
    }

    #[test]
    fn single_chip_interaction_joins_every_pool() {
        let cfg = DlrmConfig::default_config(DlrmSize::Small);
        let g = cfg.build_graph(&ParallelismConfig::single());
        let interaction = g.iter().find(|op| &*op.name == "interaction").unwrap();
        // No all-to-all on one chip: the interaction reads each pooled
        // table directly, plus the bottom-MLP output.
        assert_eq!(g.producers_of(interaction.id).len(), cfg.num_tables as usize + 1);
    }

    #[test]
    fn min_chips_for_capacity_matches_table4_scale() {
        let d = NpuSpec::generation(NpuGeneration::D);
        for size in DlrmSize::ALL {
            let cfg = DlrmConfig::default_config(size);
            let chips = cfg.min_chips_for_capacity(d.hbm_bytes());
            assert!((1..=8).contains(&chips), "{size}: {chips} chips");
        }
        // DLRM-L needs at least 2 NPU-D chips (98 GB * 1.2 > 95 GB).
        assert!(
            DlrmConfig::default_config(DlrmSize::Large).min_chips_for_capacity(d.hbm_bytes()) >= 2
        );
    }

    #[test]
    fn batch_override() {
        let cfg = DlrmConfig::default_config(DlrmSize::Small).with_batch(4096);
        assert_eq!(cfg.batch, 4096);
        let g = cfg.build_graph(&ParallelismConfig::new(8, 1, 1));
        assert!(g.len() > 10);
    }
}
