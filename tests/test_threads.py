"""Bits do not depend on the BLAS thread count.

Each case runs in two processes, one with ``OPENBLAS_NUM_THREADS=1`` and one
with ``=2``, and the two must print the same hashes: every ``linear``
forward and gradient at the shapes PosMLP-T builds at batch 1 and MICRO at
batch 1 and 32, and a MICRO training step at batch 1.  A batch-1 head is a
one-row product, whose BLAS bits depend on the thread count at the width of
T's 1000 classes.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = '''
import hashlib

import numpy as np

from posmlp import model as M, tensor as T, training as TR


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def linear_shapes(variant, batch):
    """(x shape, weight shape) of each linear the variant builds, x windowed as in a block."""
    c = M.variant_config(variant)
    side = c.image_side // 4
    for i, st in enumerate(c.stages):
        n, windows = st.window_side ** 2, ((side >> i) // st.window_side) ** 2
        hidden = st.dim * st.expansion
        yield (batch * windows, n, st.dim), (st.dim, hidden)
        yield (batch * windows, n, hidden // 2), (hidden // 2, st.dim)
    yield (batch, c.stages[3].dim), (c.stages[3].dim, c.num_classes)


rng = np.random.default_rng(0)
for variant, batch in (("T", 1), ("MICRO", 1), ("MICRO", 32)):
    for xs, ws in linear_shapes(variant, batch):
        x = T.Tensor(rng.standard_normal(xs).astype(np.float32), requires_grad=True)
        w = T.Tensor(rng.standard_normal(ws).astype(np.float32) * 0.05, requires_grad=True)
        b = T.Tensor(rng.standard_normal(ws[1]).astype(np.float32), requires_grad=True)
        y = T.linear(x, w, b)
        print(variant, batch, xs, ws, digest([y.data, *y._vjp(rng.standard_normal(y.shape)
                                                           .astype(np.float32))]))

m = M.build_model(M.variant_config("MICRO"), rng=np.random.default_rng(1))
images = T.Tensor(rng.standard_normal((1, 32, 32, 3)).astype(np.float32))
loss = T.cross_entropy_mean(m.forward(images), np.array([2]))
T.backward(loss)
print("MICRO step", digest([loss.data] + [p.grad for p in m.parameters().values()]))
'''


def hashes(threads):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": str(threads)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()


def test_linear_and_a_micro_step_have_the_same_bits_at_one_and_two_blas_threads():
    one, two = hashes(1), hashes(2)
    assert len(one) == 2 * 9 + 9 + 1
    assert one == two
