"""Relative displacements and the learnable lookup table.

A k x k window has N = k^2 tokens; every ordered token pair (i, j) is
described by its 2-D displacement.  A lookup table with one scalar per
distinct displacement already yields a full N x N token-mixing matrix with
only (2k-1)^2 parameters.
"""

import numpy as np

from posmlp.positional import LrpeTable, displacement_grid, lrpe_index_map, lrpe_weight_matrix

k = 3
grid = displacement_grid(k)
print(f"window {k}x{k} -> {grid.n_tokens} tokens")
print("displacement from token 0 to every token:")
print(np.stack([grid.dx[0], grid.dy[0]], axis=-1).reshape(k, k, 2))

# every displacement keys one slot of the (2k-1)^2 dictionary
idx = lrpe_index_map(grid)
print(f"\ndictionary size: {(2 * k - 1) ** 2}, distinct indices used: "
      f"{len(np.unique(idx))}")

table = LrpeTable(k, group_count=1, rng=np.random.default_rng(0), dtype=np.float64)
w = lrpe_weight_matrix(table).data
print("\nlookup mixing matrix (first 4 rows):")
print(np.round(w[:4], 3))

# entries depend on token pairs only through their displacement: the
# diagonal (displacement (0,0)) is constant
print("\ndiagonal entries all equal:", np.unique(np.diag(w)).size == 1)

# one parameter per displacement instead of N^2 dense weights
print(f"parameters: dense mixing {grid.n_tokens ** 2}, lookup {table.values.size}")
