"""Full-precision reference tensor operations (NCHW layout).

These are the float32 baselines: they feed profiling, serve as the
accuracy reference for the integer engine, and double as oracles in
tests. All functions are pure; inputs are never modified. Callers pass
the shapes a validated graph allows (:func:`chanq.graph.validate` checks
each node once, at load), so no function here re-checks them.

Conv, depthwise and fc layers share one im2col column layout (operands
first, output positions last; Chellapilla et al. 2006), copied in blocks
by :func:`_col_blocks` for both engines; a depthwise layer is a conv of
one group per channel. Each block is one grouped float64
GEMM plus bias, cast once to float32 in place. A product of two float32
values is exact in float64, so the error of that sum is bounded (Higham,
*Accuracy and Stability of Numerical Algorithms*, ch. 3): a second GEMM,
``|w| @ |x|``, gives the bound c_K * (|w| @ |x|) + 3u * |bias| (see
:func:`_unsettled`). Every lane the bound cannot place on one side of a
float32 rounding midpoint is recomputed exactly with ``math.fsum``. Each
output is therefore the float32 nearest to the exact sum plus bias, ties
to even, whatever order the BLAS sums in.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Largest block of im2col columns or of its outputs, in elements (one column at least).
_BLOCK_ELEMS = 2**16
_U = 2.0**-53  # unit roundoff of float64


def _windows(x: np.ndarray, kh: int, kw: int, stride, pad) -> np.ndarray:
    # -> [N, C, H', W', Kh, Kw]; stride and pad are (h, w) pairs
    (sh, sw), (ph, pw) = stride, pad
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    return win[:, :, ::sh, ::sw, :, :]


def _unsettled(y: np.ndarray, mag: np.ndarray, b, k: int) -> np.ndarray:
    """Lanes where float32(y) may differ from the float32 nearest the exact sum.

    ``y`` is the float64 sum of K products of float32 values, in any order,
    with the bias ``b`` added last, and ``mag`` the float64 sum of the
    products' magnitudes, which becomes the error bound in place. With M the
    exact sum of magnitudes, the exact sum lies within gamma_K * M + u * |b|
    of ``y`` (Higham's gamma_n = n*u / (1 - n*u); |y| <= M + |b| up to
    rounding, so u * |b| and part of gamma_K cover the bias add). The bound
    c_K * mag + 3u * |b|, with c_K = (K+2)u / (1 - 2(K+2)u), also covers the
    rounding of ``mag`` (M <= mag / (1 - gamma_{K-1})), of the bound and of
    y -+ bound, for any K below 2**50. Rounding to float32 is monotone, so a
    lane is settled when both ends of that interval round alike; a NaN lane
    is flagged.
    """
    n = (k + 2) * _U
    mag *= n / (1 - 2 * n)
    mag += 3 * _U * np.abs(b)
    lo, hi = np.empty((2, *y.shape), np.float32)
    np.subtract(y, mag, out=lo)
    np.add(y, mag, out=hi)
    return lo != hi


def _nearest_f32(c: np.ndarray, w: np.ndarray, b: float) -> np.float32:
    """The float32 nearest to the exact ``sum(c * w) + b``, ties to even.

    Exact when ``c`` and ``w`` hold float32 values (their products are then
    exact in float64); wider operands get their float64 products summed
    exactly, which is still independent of order.
    """
    terms = [*(c * w).tolist(), float(b)]
    r = math.fsum(terms)  # the exact sum rounded once, to float64
    f = np.float32(r)
    if float(f) != r:
        # float32(r) is wrong only where r landed on a float32 midpoint that
        # the exact sum misses; the sign of the exact residual picks the side
        g = np.nextafter(f, np.float32(math.copysign(np.inf, r - float(f))))
        residual = math.fsum(terms + [-r])
        if r == (float(f) + float(g)) / 2 and residual:
            f = max(f, g) if residual > 0 else min(f, g)
    return f


def _col_blocks(cols: np.ndarray, batch_axis: int, col_elems: int, dtype):
    """Yield ``(positions, block)`` over the columns of the view ``cols``.

    Axes before ``batch_axis`` index the K operands of a column, the batch
    axis and those after it the output positions. ``block`` is a [K, m]
    copy in ``dtype`` of the columns at the ``positions`` slice of the
    flattened positions. Blocks take whole samples and split one only when
    its columns pass ``_BLOCK_ELEMS``: at ``col_elems`` elements a column,
    no block is larger unless one column is.
    """
    k, pos = math.prod(cols.shape[:batch_axis]), cols.shape[batch_axis:]
    cap = max(1, _BLOCK_ELEMS // col_elems)
    # split the first axis one index of which holds no more than cap columns
    axis = next(a for a in range(len(pos)) if math.prod(pos[a + 1:]) <= cap)
    step, start = cap // math.prod(pos[axis + 1:]), 0
    for prefix in np.ndindex(pos[:axis]):
        for a in range(0, pos[axis], step):
            idx = (slice(None),) * batch_axis + prefix + (slice(a, a + step),)
            block = np.ascontiguousarray(cols[idx], dtype=dtype).reshape(k, -1)
            yield slice(start, start + block.shape[1]), block
            start += block.shape[1]


def _rows_dot(cols: np.ndarray, batch_axis: int, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Correctly rounded float32 of the grouped ``w @ cols + bias``.

    ``cols`` is a column view (see :func:`_col_blocks`) of G groups of K
    operands, ``w`` is [G, O, K] and ``bias`` [G*O]: conv and fc are one
    group, depthwise is G = C, O = 1. Returns [G*O, *positions].
    """
    (g, o, k), pos = w.shape, cols.shape[batch_axis:]
    w64 = w.astype(np.float64)
    w_abs = np.abs(w64)
    b = np.asarray(bias, dtype=np.float64).reshape(g, o, 1)
    out = np.empty((g, o, math.prod(pos)), dtype=np.float32)
    for at, x in _col_blocks(cols, batch_axis, g * max(k, o), np.float64):
        x = x.reshape(g, k, -1)
        y = np.matmul(w64, x)
        y += b
        rounded = out[..., at]
        np.copyto(rounded, y, casting="same_kind")
        unsettled = _unsettled(y, np.matmul(w_abs, np.abs(x)), b, k)
        if unsettled.any():
            for i, j, r in zip(*np.nonzero(unsettled)):
                if math.isfinite(y[i, j, r]):
                    rounded[i, j, r] = _nearest_f32(x[i, :, r], w64[i, j], b[i, j, 0])
    return out.reshape(g * o, *pos)


def _conv_cols(x: np.ndarray, kh: int, kw: int, stride, pad) -> np.ndarray:
    # -> [C, Kh, Kw, N, H', W'], the column view of a convolution (batch axis 3)
    return _windows(x, kh, kw, stride, pad).transpose(1, 4, 5, 0, 2, 3)


def _tap_reduce(win: np.ndarray, op) -> np.ndarray:
    """Fold the Kh*Kw taps of a [..., Kh, Kw] window view with the ufunc ``op``."""
    taps = np.ndindex(win.shape[-2:])
    out = win[(..., *next(taps))].copy()
    for u, v in taps:
        op(out, win[..., u, v], out=out)
    return out


def conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, stride=(1, 1),
           pad=(0, 0)) -> np.ndarray:
    """Cross-correlation with zero padding plus per-output-channel bias; a
    [C, 1, Kh, Kw] kernel over C channels is depthwise: C groups of one.
    ``stride`` and ``pad`` are (h, w) pairs."""
    _, ck, kh, kw = kernel.shape
    groups = kernel.reshape(x.shape[1] // ck, -1, ck * kh * kw)  # [G, Co/G, K]
    out = _rows_dot(_conv_cols(x, kh, kw, stride, pad), 3, groups, bias)
    return np.ascontiguousarray(out.transpose(1, 0, 2, 3))


def fully_connected(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map ``x @ weights.T + bias``; 4-D inputs are flattened row-major."""
    if x.ndim == 4:
        x = x.reshape(x.shape[0], -1)
    return np.ascontiguousarray(_rows_dot(x.T, 1, weights[None], bias).T)


def relu(x: np.ndarray) -> np.ndarray:
    return np.asarray(np.maximum(x, 0), dtype=np.float32)


def pool(x: np.ndarray, kind: str, window, stride, pad=(0, 0)) -> np.ndarray:
    """Window reduction over spatial dims.

    Average pooling always divides by the full window size, including at
    padded borders, so the integer counterpart has a fixed shift.
    ``kind`` is "max" or "avg"; ``window``, ``stride`` and ``pad`` are
    (h, w) pairs.
    """
    wh, ww = window
    # the order of the float32 window sum follows the input's strides: fix them
    win = _windows(np.ascontiguousarray(x), wh, ww, stride, pad)
    if kind == "max":
        out = _tap_reduce(win, np.maximum)
    else:
        out = win.sum(axis=(4, 5)) / float(wh * ww)
    return out.astype(np.float32)


def add_elementwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.asarray(a + b, dtype=np.float32)


def concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.asarray(np.concatenate([a, b], axis=1), dtype=np.float32)


def batchnorm(x: np.ndarray, gamma, beta, mean, var, eps: float) -> np.ndarray:
    """Per-channel inference-mode normalization: gamma*(x-mean)/sqrt(var+eps)+beta."""
    scale = gamma / np.sqrt(var + eps)
    shape = (1, -1, 1, 1)
    out = x * scale.reshape(shape) + (beta - mean * scale).reshape(shape)
    return out.astype(np.float32)
