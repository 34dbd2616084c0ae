"""Working with drug molecular graphs.

Shows the three-file tabular representation, the symmetrically normalized
adjacency the graph encoder propagates over, the real-atom encoder record
with its precomputed first propagation and its capacity, the two structural invariances the encoder guarantees
(atom order and capacity never change the pooled drug embedding), and
packed encoding of several drugs in one call.
"""

import tempfile
from pathlib import Path

import numpy as np

from cdrpipe import (ModelConfig, encode_drug, init_params, load_graph,
                     normalized_adjacency, pad_graph, save_graph)
from cdrpipe.molgraph import MolecularGraph
from cdrpipe.synthetic import random_graph

rng = np.random.default_rng(3)

# ---------------------------------------------------------------------------
# 1. A tiny 3-atom molecule: a path 0 - 1 - 2.
# ---------------------------------------------------------------------------
graph = MolecularGraph(
    drug_id="demo",
    features=rng.normal(size=(3, 75)),
    adjacency=[(0, 1), (1, 2)],
    degrees=np.array([1, 2, 1]),
)
print("normalized adjacency with self loops:\n", normalized_adjacency(graph).round(3))

# Graphs round-trip exactly through their three-file form.
with tempfile.TemporaryDirectory() as tmp:
    paths = [Path(tmp) / n for n in ("f.csv", "a.csv", "d.csv")]
    save_graph(graph, *paths)
    back = load_graph(*paths, drug_id="demo")
    print("round trip exact:", np.array_equal(back.features, graph.features)
          and np.array_equal(back.adjacency, graph.adjacency))

# ---------------------------------------------------------------------------
# 2. The encoder record checks the graph against a capacity and keeps only
#    the real atoms: nothing is padded. The mask spans the capacity. The
#    record holds the first GCN layer's propagation A_hat @ X, built once
#    here since the atom features never change, and A_hat; it does not keep
#    the features X themselves.
# ---------------------------------------------------------------------------
padded = pad_graph(graph, n_max=6)
print("mask:", padded.mask, "- atoms", padded.n_atoms,
      "- adjacency", padded.norm_adjacency.shape, "- propagated", padded.propagated.shape)

# ---------------------------------------------------------------------------
# 3. The pooled embedding ignores atom order and capacity.
# ---------------------------------------------------------------------------
cfg = ModelConfig(gcn_layer_dims=(16, 8), cell_branch_dims=(4,), head_dims=(1,),
                  n_max_atoms=6, cell_input_dim=4)
params = init_params(cfg, seed=0)

g = random_graph(rng, "bigger", 5)
base = encode_drug(None, [pad_graph(g, 6)], params, cfg)

perm = rng.permutation(g.n_atoms)
inverse = np.argsort(perm)
# the bonds are an m x 2 index array, so relabeling them is one lookup
relabeled = MolecularGraph(g.drug_id, g.features[perm], inverse[g.adjacency], g.degrees[perm])
permuted = encode_drug(None, [pad_graph(relabeled, 6)], params, cfg)
print("permutation gap:", float(np.max(np.abs(base.data - permuted.data))))

wide = encode_drug(None, [pad_graph(g, 40)], params, cfg)
print("capacity gap:", float(np.max(np.abs(base.data - wide.data))))

# ---------------------------------------------------------------------------
# 4. A list of drugs is encoded as one packed graph, one pooled row per drug;
#    packing with other drugs does not change a drug's row.
# ---------------------------------------------------------------------------
packed = encode_drug(None, [padded, pad_graph(g, 6), pad_graph(relabeled, 6)], params, cfg)
print("packed rows:", packed.shape[0], "- packing gap:",
      float(np.max(np.abs(packed.data[1:2] - base.data))))
