"""Minimal reverse-mode differentiation engine.

A ``Value`` wraps a float64 numpy buffer of rank <= 3 (batch, time, channel
as applicable) together with parent references and a backward rule,
forming an acyclic computation graph.  ``backward`` walks the graph in
reverse topological order and delivers gradients to trainable leaves only:
a ``requires_grad`` leaf owns a ``.grad`` buffer of its shape, into which
gradients accumulate across calls (callers ``zero_grads`` between optimizer
steps); every other node passes its flow on and keeps ``.grad`` None.
``pack`` turns a model's trainable leaves into views of one flat leaf, so
that both run once over all of them.

The operator set is exactly what the attention and temporal-convolution
heads need.  Every op takes ``Value``s; a constant array enters the graph
as one ``Value(x)`` leaf.  The attention ops are batched: ``row_dot``
scores [B x T x D] frames against [H x D] head vectors, ``softmax_sharp``
and ``l2_normalize`` act over the last axis at any rank, and
``weighted_row_sum`` pools [B x T x D] with [B x H x T] weights.

Everything is computed in 64-bit so central finite differences at step 1e-3
are a meaningful oracle; ``fd_check`` is the verification harness.  Its
kink bookkeeping (the side of its kink each ReLU/max/clamp node sits on) is
computed on demand: ops hand ``_node`` a thunk, and only ``_kink_sides``
evaluates it, so training and evaluation never pay for it.  A grad_fn skips
the gradient of any parent that does not require one.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError, UsageError

EPS_NORM = 1e-12  # l2_normalize denominator clamp
EPS_BN = 1e-5  # batch-norm variance epsilon
BN_MOMENTUM = 0.9  # retention factor for batch-norm running statistics

GradFn = Callable[[np.ndarray], tuple]


def check_seeds(*seeds: int) -> list[int]:
    """The seeds as ints: each must be a non-negative integer (ConfigError),
    and a float or a bool raises TypeError.

    It builds no generator, so it loads none of ``numpy.random``.
    """
    if any(isinstance(s, bool) for s in seeds):
        raise TypeError(f"a seed must be an integer, not a bool, got {seeds}")
    seeds = [operator.index(s) for s in seeds]
    if min(seeds, default=0) < 0:
        raise ConfigError(f"seed must be non-negative, got {min(seeds)}")
    return seeds


def rng(*seeds: int) -> np.random.Generator:
    """Deterministic generator (PCG64): identical seeds, identical stream.

    Extra integers select independent substreams, e.g. ``rng(seed, epoch)``.
    The seeds obey ``check_seeds``.
    """
    return np.random.default_rng(check_seeds(*seeds))


class Value:
    """Node in the differentiation graph: data, grad, backward rule.

    ``grad`` is a buffer of the data's shape, zeroed at creation, on a leaf
    created with ``requires_grad`` (a view into the flat leaf after
    ``pack``) and None on every other Value.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_op", "_kink_side")

    def __init__(self, data, requires_grad: bool = False):
        arr = _checked(np.asarray(data, dtype=np.float64))
        self.data = arr
        self.grad = np.zeros_like(arr) if requires_grad else None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Value, ...] = ()
        self._grad_fn: GradFn | None = None
        self._op = "leaf"
        self._kink_side = None


def _checked(arr: np.ndarray) -> np.ndarray:
    if arr.ndim > 3:
        raise ShapeError(f"rank {arr.ndim} exceeds the supported maximum of 3")
    if arr.size == 0:
        raise ShapeError("all extents must be >= 1")
    return arr


def _node(data, parents: Sequence[Value], grad_fn: GradFn, op: str, kink_side=None) -> Value:
    """A graph node.  kink_side is None or a zero-argument thunk.

    The thunk reads the node's inputs when it is evaluated, so ask for the
    side before mutating a parameter the graph was built from.
    """
    # built without Value.__init__: op results are float64 arrays already,
    # except a few scalars such as cross_entropy's Python float
    if type(data) is not np.ndarray or data.dtype != np.float64:
        data = np.asarray(data, dtype=np.float64)
    _checked(data)
    requires_grad = any(p.requires_grad for p in parents)
    out = Value.__new__(Value)
    out.data = data
    out.grad = None
    out.requires_grad = requires_grad
    out._parents = tuple(parents)
    out._grad_fn = grad_fn if requires_grad else None
    out._op = op
    # which side of its kinks the node sits on: relu masks, argmax indices;
    # kinks in constant subtrees cannot be crossed by perturbing parameters
    out._kink_side = kink_side if requires_grad else None
    return out


def zero_grads(params) -> None:
    """Zero the grad buffers of the given trainable leaves."""
    for v in params:
        v.grad[...] = 0.0


def pack(values: Sequence[Value]) -> Value:
    """One flat trainable leaf, the arena of the given trainable leaves.

    It holds their values and gradients in order, and each leaf's .data and
    gradient buffer become reshaped views of its .data and .grad (a rank-0
    leaf a ()-shaped view), so zeroing or stepping the flat leaf zeroes or
    steps every leaf at once.  Code that rebinds a leaf's .data afterwards
    detaches it from the arena; write into it in place instead.
    """
    values = list(values)
    if not values or not all(v.requires_grad for v in values):
        raise UsageError("pack needs at least one leaf, all of them trainable")
    if len({id(v) for v in values}) != len(values):
        raise UsageError("pack got the same leaf twice")
    flat = Value(np.concatenate([v.data.reshape(-1) for v in values]), requires_grad=True)
    flat.grad[...] = np.concatenate([v.grad.reshape(-1) for v in values])
    start = 0
    for v in values:
        stop = start + v.data.size
        v.data = flat.data[start:stop].reshape(v.data.shape)
        v.grad = flat.grad[start:stop].reshape(v.data.shape)
        start = stop
    return flat


def _topo_order(root: Value) -> list[Value]:
    order: list[Value] = []
    visited: set[int] = set()
    stack: list[tuple[Value, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(root: Value) -> None:
    """Accumulate d(root)/d(leaf) into .grad of every reachable trainable leaf.

    Repeated calls without zero_grads add up (multi-loss semantics).  The
    per-call flows live in a scratch map: a node without a grad_fn, a
    trainable leaf, adds its flow into its buffer, and every other node
    hands its flow to its grad_fn and keeps nothing.  A grad_fn may return
    its flow g or views of it but never writes into g, since flows may
    alias one another.
    """
    if root.data.ndim != 0:
        raise UsageError("backward requires a scalar root")
    if not root.requires_grad:
        return
    flows: dict[int, np.ndarray] = {id(root): np.ones(())}
    for node in reversed(_topo_order(root)):
        g = flows.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            node.grad += g
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = flows.get(id(parent))
            flows[id(parent)] = pg if acc is None else acc + pg


def _kink_sides(root: Value) -> list[np.ndarray]:
    """The side of its kinks each trainable ReLU/max/clamp node sits on.

    Two graphs built by the same code sit on the same side of every kink
    exactly when their lists are equal element by element.  backward's
    topological order reaches every such node, since only nodes that
    require grad get a side.
    """
    return [node._kink_side() for node in _topo_order(root) if node._kink_side is not None]


def _same_sides(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------


def add(a: Value, b: Value) -> Value:
    out = a.data + b.data

    def grad_fn(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _node(out, (a, b), grad_fn, "add")


def mul(a: Value, b: Value) -> Value:
    out = a.data * b.data

    def grad_fn(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _node(out, (a, b), grad_fn, "mul")


def sum_all(x: Value) -> Value:

    def grad_fn(g):
        return (np.full_like(x.data, float(g)),)

    return _node(x.data.sum(), (x,), grad_fn, "sum_all")


def relu(x: Value) -> Value:
    """Elementwise max(x, 0): x where x > 0, else +0.0, also for -0.0 and NaN.

    The mask x > 0 is rebuilt from the output when backward or the kink
    side asks for it.
    """
    xd = x.data
    # fmax drops NaN as np.where(x > 0, x, 0) does; adding +0.0 turns -0.0 into +0.0
    out = np.fmax(xd, 0.0)
    out += 0.0

    def grad_fn(g):
        return (g * (out > 0.0),)

    return _node(out, (x,), grad_fn, "relu", kink_side=lambda: out > 0.0)


def reshape(x: Value, shape: tuple[int, ...]) -> Value:
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"cannot reshape {x.data.shape} to {shape}")

    def grad_fn(g):
        return (g.reshape(x.data.shape),)

    return _node(x.data.reshape(shape), (x,), grad_fn, "reshape")


def concat(values: Sequence[Value], axis: int = 0) -> Value:
    vals = list(values)
    if not vals:
        raise ConfigError("concat requires at least one value")
    ref = vals[0].data.shape
    for v in vals[1:]:
        got = v.data.shape
        if len(got) != len(ref) or any(g != r for i, (g, r) in enumerate(zip(got, ref)) if i != axis):
            raise ShapeError(f"concat extents mismatch off axis {axis}: {ref} vs {got}")
    out = np.concatenate([v.data for v in vals], axis=axis)
    splits = np.cumsum([v.data.shape[axis] for v in vals])[:-1]

    def grad_fn(g):
        return tuple(piece if v.requires_grad else None
                     for v, piece in zip(vals, np.split(g, splits, axis=axis)))

    return _node(out, vals, grad_fn, "concat")


def take_rows(x: Value, index) -> Value:
    """Rows of x picked along axis 0: out[i] = x[index[i]]."""
    index = np.asarray(index, dtype=np.intp)
    if x.data.ndim < 1 or index.ndim != 1 or index.size == 0:
        raise ShapeError("take_rows expects a value of rank >= 1 and a non-empty index vector")
    if index.min() < 0 or index.max() >= x.data.shape[0]:
        raise ShapeError(f"take_rows index out of range for {x.data.shape[0]} rows")

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, index, g)
        return (gx,)

    return _node(x.data[index], (x,), grad_fn, "take_rows")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Value, b: Value) -> Value:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects rank-2 operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.data.shape} x {b.data.shape}")

    def grad_fn(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _node(a.data @ b.data, (a, b), grad_fn, "matmul")


def affine(x: Value, w: Value, b: Value) -> Value:
    """x @ w + b for a batch of rows x [B x D_in]."""
    return add(matmul(x, w), b)


def row_dot(x: Value, w: Value) -> Value:
    """Score every frame against every head vector.

    x [B x T x D] . w [H x D] -> [B x H x T].  One sequence against one
    vector, x [T x D] . w [D] -> [T], is the B = H = 1 case.
    """
    if x.data.ndim == 2 and w.data.ndim == 1:
        t, d = x.data.shape
        return reshape(row_dot(reshape(x, (1, t, d)), reshape(w, (1, d))), (t,))
    if x.data.ndim != 3 or w.data.ndim != 2 or x.data.shape[2] != w.data.shape[1]:
        raise ShapeError(f"row_dot shapes disagree: {x.data.shape} x {w.data.shape}")
    out = np.matmul(w.data, x.data.transpose(0, 2, 1))

    def grad_fn(g):
        return (np.matmul(g.transpose(0, 2, 1), w.data) if x.requires_grad else None,
                np.matmul(g, x.data).sum(axis=0) if w.requires_grad else None)

    return _node(out, (x, w), grad_fn, "row_dot")


def weighted_row_sum(weights: Value, x: Value) -> Value:
    """Pool frames with per-head weights.

    weights [B x H x T], x [B x T x D] -> [B x H x D], where
    out[b, h] = sum_t weights[b, h, t] * x[b, t].
    """
    wd, xd = weights.data, x.data
    if wd.ndim != 3 or xd.ndim != 3 or wd.shape[0] != xd.shape[0] or wd.shape[2] != xd.shape[1]:
        raise ShapeError(f"weighted_row_sum shapes disagree: {wd.shape} x {xd.shape}")
    out = np.matmul(wd, xd)

    def grad_fn(g):
        return (np.matmul(g, xd.transpose(0, 2, 1)) if weights.requires_grad else None,
                np.matmul(wd.transpose(0, 2, 1), g) if x.requires_grad else None)

    return _node(out, (weights, x), grad_fn, "weighted_row_sum")


# ---------------------------------------------------------------------------
# attention primitives
# ---------------------------------------------------------------------------


def softmax_sharp(logits: Value, alpha: float) -> Value:
    """softmax(alpha * logits) over the last axis, with max-subtraction.

    Any rank >= 1; every leading index is its own distribution.  alpha
    scales how peaked the distribution is.
    """
    if logits.data.ndim == 0:
        raise ShapeError("softmax_sharp expects a value of rank >= 1")
    if not alpha > 0.0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    if not np.all(np.isfinite(logits.data)):
        raise NumericError("softmax_sharp input contains non-finite entries")
    z = alpha * (logits.data - logits.data.max(axis=-1, keepdims=True))
    e = np.exp(z)
    y = e / np.sum(e, axis=-1, keepdims=True)

    def grad_fn(g):
        return (alpha * y * (g - np.sum(g * y, axis=-1, keepdims=True)),)

    return _node(y, (logits,), grad_fn, "softmax_sharp")


def l2_normalize(v: Value) -> Value:
    """v / max(||v||_2, 1e-12) over the last axis, at any rank >= 1.

    The clamp is treated as constant in backward.
    """
    if v.data.ndim == 0:
        raise ShapeError("l2_normalize expects a value of rank >= 1")
    norm = np.sqrt(np.sum(v.data * v.data, axis=-1, keepdims=True))
    denom = np.maximum(norm, EPS_NORM)
    y = v.data / denom

    def grad_fn(g):
        tangent = (g - y * np.sum(g * y, axis=-1, keepdims=True)) / denom
        return (np.where(norm < EPS_NORM, g / denom, tangent),)

    return _node(y, (v,), grad_fn, "l2_normalize", kink_side=lambda: norm < EPS_NORM)


# ---------------------------------------------------------------------------
# temporal ops
# ---------------------------------------------------------------------------


def zero_pad_time(x: Value, length: int) -> Value:
    """Fix the time extent to `length`: truncate the tail or pad zero frames.

    Time is the second-to-last axis; input may be [T x C] or [B x T x C].
    """
    if x.data.ndim < 2:
        raise ShapeError("zero_pad_time expects a rank-2 or rank-3 value")
    if length < 1:
        raise ConfigError(f"pad length must be >= 1, got {length}")
    t = x.data.shape[-2]
    keep = min(t, length)
    out = np.zeros(x.data.shape[:-2] + (length,) + x.data.shape[-1:])
    out[..., :keep, :] = x.data[..., :keep, :]

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        gx[..., :keep, :] = g[..., :keep, :]
        return (gx,)

    return _node(out, (x,), grad_fn, "zero_pad_time")


def _segment_bounds(t: int, n: int) -> list[tuple[int, int]]:
    return [(i * t // n, (i + 1) * t // n) for i in range(n)]


def _max_time(x: np.ndarray) -> np.ndarray:
    """Max over the second-to-last axis, equal to the value at np.argmax.

    np.max keeps the later of a -0.0/+0.0 tie where np.argmax names the
    earlier, so a zero maximum is read at the argmax instead.
    """
    out = x.max(axis=-2)
    if not out.all():
        out = np.take_along_axis(x, np.argmax(x, axis=-2)[..., None, :], axis=-2)[..., 0, :]
    return out


def segment_max(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Per-channel max of x over n contiguous segments [floor(iT/n), floor((i+1)T/n)).

    Time is the second-to-last axis.  Returns the maxima, the frames
    gathered into [.. x n x width x C] (short segments repeat their last
    frame, and a repeat never precedes its original, so the earliest argmax
    is a real frame) and each segment's first frame.  With n == T every
    segment is one frame: the maxima are x itself and the other two None.
    The forward of ``adaptive_max_pool1d``, for inputs no gradient reaches.
    """
    if x.ndim < 2:
        raise ShapeError("adaptive_max_pool1d expects a rank-2 or rank-3 value")
    t = x.shape[-2]
    if not 1 <= n <= t:
        raise ConfigError(f"segment count {n} must lie in [1, {t}]")
    if n == t:
        return x, None, None
    lo, hi = np.array(_segment_bounds(t, n)).T
    index = np.minimum(lo[:, None] + np.arange((hi - lo).max()), hi[:, None] - 1)
    segments = np.take(x, index, axis=-2)
    return _max_time(segments), segments, lo


def adaptive_max_pool1d(x: Value, n: int) -> Value:
    """``segment_max`` as a graph node; the input comes back unchanged at n == T.

    Backward routes each segment's gradient to the earliest argmax frame;
    the argmax, which is also the kink side, is computed on demand.
    """
    out, segments, lo = segment_max(x.data, n)
    if segments is None:
        return x
    argmax = functools.cache(lambda: np.argmax(segments, axis=-2))  # within each segment

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        # one argmax per (segment, batch, channel), so a plain scatter is exact
        np.put_along_axis(gx, argmax() + lo[:, None], g, axis=-2)
        return (gx,)

    return _node(out, (x,), grad_fn, "adaptive_max_pool1d", kink_side=argmax)


def global_max_pool_time(x: Value) -> Value:
    """Per-channel max over the whole time axis (earliest argmax wins ties).

    [T x C] -> [C]; [B x T x C] -> [B x C].  The argmax is computed only for
    backward or the kink side.
    """
    if x.data.ndim < 2:
        raise ShapeError("global_max_pool_time expects a rank-2 or rank-3 value")
    xd = x.data
    argmax = functools.cache(lambda: np.argmax(xd, axis=-2))

    def grad_fn(g):
        gx = np.zeros_like(xd)
        np.put_along_axis(gx, argmax()[..., None, :], g[..., None, :], axis=-2)
        return (gx,)

    return _node(_max_time(xd), (x,), grad_fn, "global_max_pool_time", kink_side=argmax)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


def _tap_window(pad: np.ndarray, t: int) -> np.ndarray:
    """Read-only [.. x K x T x C] view of a zero-padded [.. x (T+K-1) x C] array.

    Tap j is pad[.., j:j+T, :]; the view copies nothing.
    """
    *lead, tp, c = pad.shape
    s = pad.strides
    window = np.ndarray((*lead, tp - t + 1, t, c), pad.dtype, pad, 0,
                        (*s[:-2], s[-2], s[-2], s[-1]))
    window.flags.writeable = False
    return window


def _tap_sum(window: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """sum_j kernels[j] * window[.., j, :, :], adding tap 0 first."""
    if window.shape[-1] > 1:
        return np.einsum("...ktc,kc->...tc", window, kernels)
    out = np.zeros(window.shape[:-3] + window.shape[-2:])
    prod = np.empty_like(out)
    for j, kernel in enumerate(kernels):
        out += np.multiply(kernel, window[..., j, :, :], out=prod)
    return out


def depthwise_conv1d(x: Value, kernels: Value) -> Value:
    """Per-channel temporal cross-correlation with same-length zero padding.

    y[.., t, c] = sum_j kernels[j, c] * x[.., t + j - (k-1)/2, c], with
    out-of-range x = 0.  Channels never mix; kernel length must be odd.
    Input may be [T x C] or [B x T x C].

    Each pass is one ``np.einsum`` over a read-only [.. x K x T x C] tap
    window of a zero-padded copy: ``"...ktc,kc->...tc"`` over the input's
    window (forward) and over the incoming gradient's with the tap axis
    reversed (input gradient), ``"btc,bktc->kc"`` (``"tc,ktc->kc"`` at
    rank 2) over the input's window (kernel gradient).  These add the taps
    in the order of a loop with one multiply and add per tap, so they give
    its bits for every C > 1, the kernel gradient only on a C-contiguous
    incoming gradient (hence the copy).  At C = 1 einsum adds in another
    order, so one channel keeps the loop.  On non-finite inputs a NaN's
    sign or payload bits can differ from the loop's where two NaNs meet in
    a sum; no artifact carries them, as training stops on a non-finite loss.
    """
    if x.data.ndim < 2 or kernels.data.ndim != 2:
        raise ShapeError("depthwise_conv1d expects x[..xTxC] and kernels[kxC]")
    k, ck = kernels.data.shape
    t, c = x.data.shape[-2], x.data.shape[-1]
    if ck != c:
        raise ShapeError(f"kernel channels {ck} do not match input channels {c}")
    if k % 2 == 0:
        raise ConfigError(f"kernel length must be odd, got {k}")
    p = (k - 1) // 2
    xpad = np.zeros(x.data.shape[:-2] + (t + 2 * p, c))
    xpad[..., p:p + t, :] = x.data
    xwin = _tap_window(xpad, t)
    out = _tap_sum(xwin, kernels.data)

    def grad_fn(g):
        g = np.ascontiguousarray(g)
        gx = gk = None
        if x.requires_grad:
            gpad = np.zeros(x.data.shape[:-2] + (t + 2 * p, c))
            gpad[..., p:p + t, :] = g
            gx = _tap_sum(_tap_window(gpad, t)[..., ::-1, :, :], kernels.data)
        if kernels.requires_grad and c > 1:
            gk = np.einsum("btc,bktc->kc" if g.ndim == 3 else "tc,ktc->kc", g, xwin)
        elif kernels.requires_grad:
            gk = np.empty_like(kernels.data)
            prod = np.empty_like(g)
            for j in range(k):
                gk[j] = np.multiply(g, xwin[..., j, :, :], out=prod).sum()
        return gx, gk

    return _node(out, (x, kernels), grad_fn, "depthwise_conv1d")


def pointwise_conv1d(x: Value, w: Value, bias: Value) -> Value:
    """Per-timestep affine channel map: y[.., t, :] = x[.., t, :] @ w + bias.

    Input may be [T x C_in] or [B x T x C_in].
    """
    if x.data.ndim < 2 or w.data.ndim != 2 or bias.data.ndim != 1:
        raise ShapeError("pointwise_conv1d expects x[..xTxC_in], w[C_inxC_out], bias[C_out]")
    if x.data.shape[-1] != w.data.shape[0] or w.data.shape[1] != bias.data.shape[0]:
        raise ShapeError(
            f"pointwise_conv1d shapes disagree: {x.data.shape} x {w.data.shape} + {bias.data.shape}")
    out = x.data @ w.data
    out += bias.data
    cin = x.data.shape[-1]

    def grad_fn(g):
        cout = w.data.shape[1]
        return (g @ w.data.T if x.requires_grad else None,
                x.data.reshape(-1, cin).T @ g.reshape(-1, cout) if w.requires_grad else None,
                g.reshape(-1, cout).sum(axis=0) if bias.requires_grad else None)

    return _node(out, (x, w, bias), grad_fn, "pointwise_conv1d")


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


@dataclass
class BnState:
    """Running per-channel statistics, updated only by train-mode forward."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def fresh(cls, channels: int) -> "BnState":
        return cls(mean=np.zeros(channels), var=np.ones(channels))


def batch_norm(x: Value, gamma: Value, beta: Value, state: BnState, mode: str = "train") -> Value:
    """Per-channel normalization over every batch/time position.

    Train mode normalizes with the batch statistics (biased variance) and
    folds them into `state`; infer mode normalizes with `state` and leaves
    it untouched.  Accepts rank-2 [T x C] (treated as batch 1) or rank-3
    [B x T x C] input.  The data is centred once, for the variance and xhat
    alike, and the rest runs in place on the output and one scratch buffer,
    with np.mean's and np.var's arithmetic, so the bits are theirs.
    """
    if x.data.ndim not in (2, 3):
        raise ShapeError("batch_norm expects rank-2 or rank-3 input")
    c = x.data.shape[-1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")
    if mode not in ("train", "infer"):
        raise ConfigError(f"unknown batch_norm mode {mode!r}")
    flat = x.data.reshape(-1, c)
    n = flat.shape[0]
    if mode == "train":
        if n < 2:
            raise ConfigError("train-mode batch_norm needs at least 2 positions per channel")
        mean = flat.sum(axis=0) / n
        xhat = flat - mean
        out = np.square(xhat)
        var = out.sum(axis=0) / n
        state.mean[:] = BN_MOMENTUM * state.mean + (1.0 - BN_MOMENTUM) * mean
        state.var[:] = BN_MOMENTUM * state.var + (1.0 - BN_MOMENTUM) * var
    else:
        xhat = flat - state.mean
        out = np.empty_like(flat)
        var = state.var
    ivar = 1.0 / np.sqrt(var + EPS_BN)
    xhat *= ivar
    np.multiply(gamma.data, xhat, out=out)
    out += beta.data

    def grad_fn(g):
        gf = g.reshape(-1, c)
        buf = np.empty_like(gf)  # scratch for the products that are only summed
        gbeta = gf.sum(axis=0) if beta.requires_grad else None
        ggamma = np.multiply(gf, xhat, out=buf).sum(axis=0) if gamma.requires_grad else None
        if not x.requires_grad:
            return None, ggamma, gbeta
        gx = gf * gamma.data
        if mode == "train":
            # (ivar / n) * (n * gxhat - sum(gxhat) - xhat * sum(gxhat * xhat)), in place
            gsum = gx.sum(axis=0)
            gdot = np.multiply(gx, xhat, out=buf).sum(axis=0)
            gx *= n
            gx -= gsum
            gx -= np.multiply(xhat, gdot, out=buf)
            gx *= ivar / n
        else:
            gx *= ivar
        return gx.reshape(x.data.shape), ggamma, gbeta

    return _node(out.reshape(x.data.shape), (x, gamma, beta), grad_fn, "batch_norm")


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def cross_entropy(logits: Value, labels) -> Value:
    """Mean over the batch of -log softmax(logits)[label], in the log domain."""
    if logits.data.ndim != 2:
        raise ShapeError("cross_entropy expects rank-2 logits [B x K]")
    b, k = logits.data.shape
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (b,):
        raise ShapeError(f"labels must have shape ({b},)")
    if labels.min() < 0 or labels.max() >= k:
        raise DataError(f"labels must lie in [0, {k})")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    loss = float(np.mean(lse - z[np.arange(b), labels]))

    def grad_fn(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(b), labels] -= 1.0
        return (p * (float(g) / b),)

    return _node(loss, (logits,), grad_fn, "cross_entropy")


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------


@dataclass
class FdReport:
    """Outcome of comparing analytic gradients against central differences."""

    max_rel_error: float
    tol: float
    passed: bool
    coords_checked: int
    worst_param: str
    # every failing coordinate is explained by the step, not the gradient:
    # it crossed a kink, or the central difference had not converged
    step_unfit: bool = False

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} max_rel_error={self.max_rel_error:.3e} tol={self.tol:.1e} "
                f"coords={self.coords_checked} worst={self.worst_param}")


def _check_fd_args(step: float, tol: float) -> None:
    """Raise ConfigError unless ``fd_check`` can take this step and tolerance."""
    if not 0.0 < step < np.inf:
        raise ConfigError(f"finite-difference step must be positive and finite, got {step}")
    if not 0.0 <= tol < np.inf:
        raise ConfigError(f"tolerance must be non-negative and finite, got {tol}")


def fd_check(f: Callable[[], Value], params, step: float = 1e-3, tol: float = 1e-4) -> FdReport:
    """Compare analytic gradients of the scalar f() against central differences.

    `params` is a list of (name, Value) pairs of trainable leaves; their
    .data buffers are perturbed in place, one coordinate at a time, and
    restored.  Errors are normalized by the largest finite gradient
    magnitude seen (floored at 1e-6) so near-zero coordinates do not divide
    by noise.  A coordinate
    whose analytic or numeric derivative is not finite fails outright.

    Failing coordinates are probed again (``_step_explains``): when each
    one's step crossed a kink or was too coarse for the local curvature,
    the report says ``step_unfit`` and central differences at this step are
    no oracle for the sample.
    """
    _check_fd_args(step, tol)
    named = list(params)
    zero_grads(v for _, v in named)
    root = f()
    backward(root)
    analytic = [v.grad.copy() for _, v in named]

    numeric = []
    for _, v in named:
        flat = v.data.reshape(-1)
        num = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(f().data)
            flat[i] = orig - step
            fm = float(f().data)
            flat[i] = orig
            num[i] = (fp - fm) / (2.0 * step)
        numeric.append(num.reshape(v.data.shape))

    finite = [np.isfinite(a) & np.isfinite(n) for a, n in zip(analytic, numeric)]
    scale = max([1e-6] + [float(np.abs(x[ok]).max(initial=0.0))
                          for a, n, ok in zip(analytic, numeric, finite) for x in (a, n)])
    max_rel = 0.0
    worst = named[0][0] if named else ""
    coords = 0
    failing = []
    for (name, v), a, n, ok in zip(named, analytic, numeric, finite):
        coords += a.size
        err = np.abs(np.subtract(a, n, out=np.full(a.shape, np.inf), where=ok))
        rel = float(err.max()) / scale
        if rel >= max_rel:
            max_rel = rel
            worst = name
        failing += [(v, i, a.flat[i], n.flat[i]) for i in np.flatnonzero(err > tol * scale)]
    base = _kink_sides(root)
    unfit = bool(failing) and all(_step_explains(f, v, i, slope, fd_slope, step, base)
                                  for v, i, slope, fd_slope in failing)
    return FdReport(max_rel_error=max_rel, tol=tol, passed=max_rel <= tol,
                    coords_checked=coords, worst_param=worst, step_unfit=unfit)


def _step_explains(f, v: Value, i: int, analytic: float, numeric: float, step: float,
                   base: list[np.ndarray]) -> bool:
    """Whether coordinate i's central-difference error comes from the step.

    Either a probe at +-step or +-step/2 sits on another side of some kink
    than the unperturbed graph, or halving the step at least halves the
    error and keeps its sign: central differences converge at O(step^2) to
    the true slope, so an error that shrinks like that is truncation, not a
    wrong gradient, whose error would stay put.  A non-finite slope is never
    the step's fault.
    """
    if not (np.isfinite(analytic) and np.isfinite(numeric)):
        return False
    flat = v.data.reshape(-1)
    orig = flat[i]
    values = {}
    try:
        for delta in (step, -step, step / 2, -step / 2):
            flat[i] = orig + delta
            out = f()
            if not _same_sides(_kink_sides(out), base):
                return True
            values[delta] = float(out.data)
    finally:
        flat[i] = orig
    err, err_half = numeric - analytic, (values[step / 2] - values[-step / 2]) / step - analytic
    return err * err_half > 0.0 and abs(err_half) <= abs(err) / 2
