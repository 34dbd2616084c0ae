"""Drug response prediction from molecular graphs and cell-line embeddings.

A self-contained numpy pipeline: a small reverse-mode autodiff engine, a
graph-convolutional drug encoder fused with precomputed cell features to
regress IC50, and the grouped-PCC / leave-one-drug-out / training-stability
evaluation harness around it.
"""

from .autodiff import (AdamState, BatchNormState, Tape, Tensor, adam_init, adam_step,
                       backward, batch_norm, dropout, finite_diff_check, gather_rows,
                       graph_conv, loss, matmul, relu, row_slice, segment_max)
from .evaluation import (EpochRecord, EvalReport, GainRow, GroupStat, PredictionRow,
                         StabilityReport, build_eval_report, grouped_pcc, pearson,
                         ranked_gains, stability_report)
from .model import (CheckpointError, ModelConfig, ModelParams, encode_cell, encode_drug,
                    forward_batch, init_params, load_checkpoint, predict,
                    predict_records, save_checkpoint)
from .molgraph import (ATOM_FEATURE_DIM, GraphError, MolecularGraph, PaddedGraph,
                       load_drug_manifest, load_graph, normalized_adjacency, pad_graph,
                       save_graph)
from .omics import (CellFeatureSet, ExpressionProfile, IngestError, ResponseDataset,
                    ResponseRecord, expression_feature_set, join_dataset, load_embeddings,
                    load_expression, load_gene_list, load_responses)
from .seeding import derive_seed
from .training import (DivergenceError, SplitError, SplitSpec, TrainConfig, lodo_splits,
                       split_dataset, train)

__version__ = "0.1.0"
