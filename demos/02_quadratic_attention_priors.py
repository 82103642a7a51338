"""The quadratic (Gaussian) positional prior.

Six numbers per group -- a 2-D center shift and a 2x2 precision factor --
generate a full row-stochastic N x N mixing matrix: logits are the Gaussian
quadratic form in the displacement, evaluated as a dot product between a
learnable 5-vector and fixed polynomial displacement features.
"""

import numpy as np

from posmlp.positional import (CovarianceForm, GqpeParams, PRECISION_EPS,
                               displacement_grid, gqpe_vectors, group_weight_stack)

k = 7
grid = displacement_grid(k)
center_query = (k // 2) * k + k // 2


def show(label, params):
    w = group_weight_stack(params, grid).matrix(0)
    row = w[center_query].reshape(k, k)
    print(f"\n{label}")
    print("attention of the central query over its window:")
    print(np.round(row, 3))
    print("row sums to", w[center_query].sum())


# sharp isotropic prior: attention collapses onto the query pixel
sharp = GqpeParams(CovarianceForm.ALPHA_I, delta_frozen=True, dtype=np.float64)
sharp.alpha_raw.data[:] = np.log(np.expm1(8.0 - PRECISION_EPS))
show("sharp isotropic precision (alpha = 8)", sharp)

# nearly flat precision: attention approaches the uniform 1/N mix
flat = GqpeParams(CovarianceForm.ALPHA_I, delta_frozen=True, dtype=np.float64)
flat.alpha_raw.data[:] = -30.0
show("near-zero precision", flat)

# shifted center: the peak moves to the learned displacement
shifted = GqpeParams(CovarianceForm.GAMMA_GRAMIAN, dtype=np.float64)
shifted.gamma.data[:] = np.eye(2)
shifted.delta.data[:] = [2.0, -1.0]
show("unit precision, center shifted by (2, -1)", shifted)

# the 5-vector times the feature row reproduces the explicit quadratic
v = gqpe_vectors(shifted).data[0]
d = np.array([2.0, -1.0])
prec = shifted.effective_precision_numpy()[0]
dots = grid.features(np.float64).data.T @ v
explicit = np.einsum("ijk,kl,ijl->ij",
                     np.stack([grid.dx, grid.dy], -1) - d, prec,
                     np.stack([grid.dx, grid.dy], -1) - d) * -0.5
offset = dots.reshape(k * k, k * k) - explicit
print("\nfeature-dot logits differ from the explicit quadratic by a constant:",
      np.allclose(offset, offset.flat[0]))
print("(the row softmax cancels that constant)")
