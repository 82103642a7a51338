"""The batched convolutions against the per-image loop they replaced.

``loop_conv2d`` and ``loop_conv2d_depthwise`` convolve one image at a time,
forward and backward, exactly as the library once did: a whole patch matrix
per image, one BLAS product with it, and its patch gradient scattered back
tap by tap.  The ops form no patch matrix.  ``conv2d`` splits each of those
products into blocks and relies on three bit identities, all checked here
against the loop, bit for bit:

- a row split of each image's forward product: blocks of output rows'
  patches multiplied one at a time;
- a split of the weight gradient's product into blocks of kernel rows;
- the patch gradient's row blocks scattered last block first, which adds
  into every input element in the whole-map order.

The stem and merge shapes are MICRO's, where each map is one block, and
PosMLP-T's, where the stem's maps split into several; the block shapes
split into several unequal blocks at batch 2, stride 1 and 2 and odd
sides.  The depthwise op's input gradient goes through the same scatter.
The first two identities are properties of the BLAS these tests run on,
not of the arithmetic (see ``tensor._CONV_BLOCK_BYTES``).
"""

import numpy as np
import pytest

from posmlp import tensor as T
from posmlp.tensor import Tensor

# (B, H, W, C, Cout or M, stride): MICRO's stem and patch merges at batch 32,
# then PosMLP-T's at 224^2 and batch 1.
STEM_SHAPES = [
    (32, 32, 32, 3, 8, 2), (32, 16, 16, 8, 8, 1), (32, 16, 16, 8, 16, 2),
    (1, 224, 224, 3, 48, 2), (1, 112, 112, 48, 48, 1), (1, 112, 112, 48, 96, 2),
]
MERGE_SHAPES = [
    (32, 8, 8, 16, 2, 2), (32, 4, 4, 32, 2, 2), (32, 2, 2, 64, 2, 2),
    (1, 56, 56, 96, 2, 2), (1, 28, 28, 192, 2, 2), (1, 14, 14, 384, 2, 2),
]
# Shapes of several unequal output-row blocks, at batch 2, stride 1 and 2,
# odd sides and PosMLP-T's widths; the stride-1 conv2d shape also splits
# the weight gradient into one block per kernel row.
BLOCK_CONV_SHAPES = [(2, 75, 77, 48, 48, 1), (2, 77, 75, 48, 96, 2)]
BLOCK_DEPTHWISE_SHAPES = [(2, 127, 125, 48, 1, 1), (2, 153, 149, 96, 2, 2)]


def _pad_hw(img, pad):
    if pad == 0:
        return img
    return np.pad(img, ((pad, pad), (pad, pad), (0, 0)))


def _im2col(img, k, stride):
    """(H, W, C) -> (H'*W', k*k, C) patch tensor via tap slicing."""
    h, w, c = img.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    cols = np.empty((ho, wo, k * k, c), dtype=img.dtype)
    for di in range(k):
        for dj in range(k):
            cols[:, :, di * k + dj, :] = img[di:di + stride * ho:stride,
                                             dj:dj + stride * wo:stride, :]
    return cols.reshape(ho * wo, k * k, c), ho, wo


def _col2im(gcols, h, w, c, k, stride, ho, wo):
    """Scatter patch gradients back onto a (H, W, C) grid."""
    gimg = np.zeros((h, w, c), dtype=gcols.dtype)
    gc = gcols.reshape(ho, wo, k * k, c)
    for di in range(k):
        for dj in range(k):
            gimg[di:di + stride * ho:stride, dj:dj + stride * wo:stride, :] += gc[:, :, di * k + dj, :]
    return gimg


def loop_conv2d(x, w, b, stride, pad, g):
    """Per-image conv2d: the output and the (x, w, b) gradients for upstream g."""
    k = w.shape[0]
    bsz, h, wd_, cin = x.shape
    cout = w.shape[3]
    wmat = w.reshape(k * k * cin, cout)
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd_ + 2 * pad - k) // stride + 1
    out = np.empty((bsz, ho, wo, cout), dtype=x.dtype)
    gx = np.empty_like(x)
    gw = np.zeros_like(wmat)
    gb = np.zeros_like(b)
    for i in range(bsz):
        cols, _, _ = _im2col(_pad_hw(x[i], pad), k, stride)
        cols = cols.reshape(ho * wo, k * k * cin)
        out[i] = (cols @ wmat + b).reshape(ho, wo, cout)
        gi = g[i].reshape(ho * wo, cout)
        gw += cols.T @ gi
        gb += gi.sum(axis=0)
        gcols = (gi @ wmat.T).reshape(ho * wo, k * k, cin)
        gpad = _col2im(gcols, h + 2 * pad, wd_ + 2 * pad, cin, k, stride, ho, wo)
        gx[i] = gpad[pad:pad + h, pad:pad + wd_, :] if pad else gpad
    return out, gx, gw.reshape(w.shape), gb


def loop_conv2d_depthwise(x, w, b, stride, pad, g):
    """Per-image depthwise conv: the output and the (x, w, b) gradients for g."""
    k = w.shape[0]
    bsz, h, wd_, c = x.shape
    m = w.shape[3]
    wtaps = w.reshape(k * k, c, m)
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd_ + 2 * pad - k) // stride + 1
    out = np.empty((bsz, ho, wo, c * m), dtype=x.dtype)
    gx = np.empty_like(x)
    gw = np.zeros_like(wtaps)
    gb = np.zeros_like(b)
    for i in range(bsz):
        cols, _, _ = _im2col(_pad_hw(x[i], pad), k, stride)
        res = np.einsum("ptc,tcm->pcm", cols, wtaps)
        out[i] = (res.reshape(ho * wo, c * m) + b).reshape(ho, wo, c * m)
        gi = g[i].reshape(ho * wo, c, m)
        gw += np.einsum("ptc,pcm->tcm", cols, gi)
        gb += gi.reshape(ho * wo, c * m).sum(axis=0)
        gcols = np.einsum("pcm,tcm->ptc", gi, wtaps)
        gpad = _col2im(gcols, h + 2 * pad, wd_ + 2 * pad, c, k, stride, ho, wo)
        gx[i] = gpad[pad:pad + h, pad:pad + wd_, :] if pad else gpad
    return out, gx, gw.reshape(w.shape), gb


def _operands(rng, dtype, x_shape, w_shape, b_len, out_shape):
    """Random image batch (its images differ), weight, bias and upstream gradient."""
    x = rng.standard_normal(x_shape).astype(dtype)
    w = (rng.standard_normal(w_shape) * 0.1).astype(dtype)
    b = rng.standard_normal(b_len).astype(dtype)
    g = rng.standard_normal(out_shape).astype(dtype)
    return x, w, b, g


def _run(op, x, w, b, stride, g):
    """The library op's output and its (x, w, b) gradients for upstream g."""
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = op(xt, wt, bt, stride)
    return (out.data,) + tuple(out._vjp(g))


def _assert_bits(got, want):
    for a, e in zip(got, want):
        assert a.shape == e.shape and a.dtype == e.dtype
        np.testing.assert_array_equal(a.view(np.uint8), e.view(np.uint8))


def _conv2d_case(rng, dtype, shape):
    bsz, h, w, c, cout, stride = shape
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    return _operands(rng, dtype, (bsz, h, w, c), (3, 3, c, cout), cout, (bsz, ho, wo, cout))


def _depthwise_case(rng, dtype, shape):
    bsz, h, w, c, m, stride = shape
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    return _operands(rng, dtype, (bsz, h, w, c), (3, 3, c, m), c * m, (bsz, ho, wo, c * m))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", STEM_SHAPES + BLOCK_CONV_SHAPES)
def test_conv2d_matches_the_per_image_loop_bit_for_bit(rng, dtype, shape):
    x, w, b, g = _conv2d_case(rng, dtype, shape)
    assert x.shape[0] == 1 or not np.array_equal(x[0], x[1])
    _assert_bits(_run(T.conv2d, x, w, b, shape[5], g),
                 loop_conv2d(x, w, b, shape[5], 1, g))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", MERGE_SHAPES + BLOCK_DEPTHWISE_SHAPES)
def test_depthwise_matches_the_per_image_loop_bit_for_bit(rng, dtype, shape):
    x, w, b, g = _depthwise_case(rng, dtype, shape)
    assert x.shape[0] == 1 or not np.array_equal(x[0], x[1])
    _assert_bits(_run(T.conv2d_depthwise, x, w, b, shape[5], g),
                 loop_conv2d_depthwise(x, w, b, shape[5], 1, g))


def _row_blocks(shape, row_elements, dtype):
    ho, wo = (shape[1] - 1) // shape[5] + 1, (shape[2] - 1) // shape[5] + 1
    blocks, _ = T._conv_blocks(ho, wo * row_elements * np.dtype(dtype).itemsize)
    return [r.stop - r.start for r in blocks]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_block_shapes_split_into_unequal_blocks(dtype):
    # The oracle tests above cover these splits only while these hold.
    for shape in BLOCK_CONV_SHAPES:
        lengths = _row_blocks(shape, 9 * shape[3], dtype)
        assert len(lengths) >= 2 and len(set(lengths)) == 2
    for shape in BLOCK_DEPTHWISE_SHAPES:
        lengths = _row_blocks(shape, shape[3], dtype)
        assert len(lengths) >= 2 and len(set(lengths)) == 2
    # T's conv2 splits into row blocks and into one block per kernel row;
    # MICRO's conv2 at batch 32 is one block of each.
    t, micro = (1, 112, 112, 48, 48, 1), (32, 16, 16, 8, 8, 1)
    itemsize = np.dtype(dtype).itemsize
    assert len(_row_blocks(t, 9 * 48, dtype)) > 2
    assert len(T._conv_blocks(3, 112 * 112 * 3 * 48 * itemsize)[0]) == 3
    assert _row_blocks(micro, 9 * 8, dtype) == [16]
    assert len(T._conv_blocks(3, 16 * 16 * 3 * 8 * itemsize)[0]) == 1


def einsum_depthwise(x, w, b, stride, g):
    """The batched depthwise op as once written: one patch array, contracted by ``einsum``."""
    k = w.shape[0]
    bsz, h, wd_, c = x.shape
    m = w.shape[3]
    ho, wo = (h - 1) // stride + 1, (wd_ - 1) // stride + 1
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = np.empty((bsz, ho, wo, k * k, c), dtype=x.dtype)
    for di in range(k):
        for dj in range(k):
            cols[:, :, :, di * k + dj] = xp[:, di:di + stride * ho:stride,
                                            dj:dj + stride * wo:stride]
    cols = cols.reshape(bsz, ho * wo, k * k, c)
    wtaps = w.reshape(k * k, c, m)
    out = np.einsum("bptc,tcm->bpcm", cols, wtaps).reshape(bsz, ho, wo, c * m) + b
    gw = np.einsum("bptc,bpcm->btcm", cols, g.reshape(bsz, ho * wo, c, m)).sum(axis=0)
    return out, gw.reshape(w.shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("bsz", [1, 3])
@pytest.mark.parametrize("side, c", [(56, 96), (28, 192), (14, 384)])
def test_depthwise_taps_match_the_patch_einsum_bit_for_bit(rng, dtype, m, bsz, side, c):
    # PosMLP-T's three patch merges.  The forward sums strided tap views and
    # the weight gradient reduces tap products, with no patch array; both
    # must keep the einsum's bits, including the +0.0 it gives where every
    # product is -0.0 (a zero image channel under negative weights).
    x, w, b, g = _depthwise_case(rng, dtype, (bsz, side, side, c, m, 2))
    x[:, :, :, 0] = 0.0
    w[:, :, 0] = -np.abs(w[:, :, 0])
    g[..., :m] = -np.abs(g[..., :m])
    b[:m] = -0.0
    out, _, gw, _ = _run(T.conv2d_depthwise, x, w, b, 2, g)
    want_out, want_gw = einsum_depthwise(x, w, b, 2, g)
    assert not np.signbit(want_out[..., :m]).any() and not np.signbit(want_gw[:, :, 0]).any()
    _assert_bits((out, gw), (want_out, want_gw))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op,case,shape", [
    (T.conv2d, _conv2d_case, (5, 16, 16, 8, 16, 2)),
    (T.conv2d, _conv2d_case, (3, 12, 12, 6, 4, 1)),
    (T.conv2d_depthwise, _depthwise_case, (5, 8, 8, 16, 2, 2)),
    (T.conv2d_depthwise, _depthwise_case, (3, 6, 6, 5, 3, 1)),
])
def test_each_image_of_a_batch_is_convolved_as_if_alone(rng, dtype, op, case, shape):
    x, w, b, g = case(rng, dtype, shape)
    out, gx, _, _ = _run(op, x, w, b, shape[5], g)
    for i in range(x.shape[0]):
        alone, gx_alone, _, _ = _run(op, x[i:i + 1], w, b, shape[5], g[i:i + 1])
        _assert_bits((out[i:i + 1], gx[i:i + 1]), (alone, gx_alone))


@pytest.mark.parametrize("op", [T.conv2d, T.conv2d_depthwise])
@pytest.mark.parametrize("x_shape,w_shape,b_len,stride,match", [
    ((1, 4, 4, 2), (3, 3, 2, 2), 4, 0, r"stride must be an integer of at least 1, got 0"),
    ((1, 4, 4, 2), (3, 3, 2, 2), 4, -1, r"stride must be an integer of at least 1, got -1"),
    ((1, 4, 4, 2), (3, 3, 2, 2), 4, 1.5, r"stride must be an integer of at least 1, got 1.5"),
    ((1, 4, 4, 2), (3, 3, 2, 2), 4, True, r"stride must be an integer of at least 1, got True"),
    ((1, 4, 4, 2), (3, 2, 2, 2), 4, 1, r"kernel \(3, 2\) is not square and odd"),
    ((1, 4, 4, 2), (2, 2, 2, 2), 4, 1, r"kernel \(2, 2\) is not square and odd"),
    ((1, 4, 4, 2), (3, 3, 2, 2), 3, 1, r"bias \(3,\)"),
])
def test_degenerate_convolution_arguments_raise_shape_error(op, x_shape, w_shape, b_len,
                                                            stride, match):
    x, w, b = Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)), Tensor(np.ones(b_len))
    with pytest.raises(T.ShapeError, match=f"^{op.__name__}: {match}"):
        op(x, w, b, stride)
