"""Minimal reverse-mode differentiation engine.

A ``Value`` wraps a float64 numpy buffer of rank <= 3 (batch, time, channel
as applicable) together with a gradient buffer of the same shape, parent
references and a backward rule, forming an acyclic computation graph.
``backward`` walks the graph in reverse topological order; gradients
accumulate across calls, so callers must ``zero_grads`` between optimizer
steps.  Gradient buffers are allocated lazily: leaves created with
``requires_grad`` get one up front, every other node when ``.grad`` is
first read.  Until then a node keeps the flows backward sent it as they
are (flows may alias one another and are never written in place), and the
first read copies them, so neither a forward-only graph nor a training step
copies any intermediate gradient.

The operator set is exactly what the attention and temporal-convolution
heads need.  The attention ops are batched: ``row_dot`` scores
[B x T x D] frames against [H x D] head vectors, ``softmax_sharp`` and
``l2_normalize`` act over the last axis at any rank, and
``weighted_row_sum`` pools [B x T x D] with [B x H x T] weights.
Reductions over the time axis in the attention path (``softmax_sharp``
denominator, ``weighted_row_sum``) sum their addends in sorted order, which
makes the forward pass bit-identical under any permutation of the input
frames.

Everything is computed in 64-bit so central finite differences at step 1e-3
are a meaningful oracle; ``fd_check`` is the verification harness.  Its
kink bookkeeping (how close each ReLU/max node sits to a kink, and on which
side) is computed on demand: ops hand ``_node`` thunks, and only
``min_kink_margin`` and ``_kink_sides`` evaluate them, so training and
evaluation never pay for it.  A grad_fn skips the gradient of any parent
that does not require one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError, UsageError

EPS_NORM = 1e-12  # l2_normalize denominator clamp
EPS_BN = 1e-5  # batch-norm variance epsilon
BN_MOMENTUM = 0.9  # retention factor for batch-norm running statistics

GradFn = Callable[[np.ndarray], tuple]


def rng(*seeds: int) -> np.random.Generator:
    """Deterministic generator (PCG64): identical seeds, identical stream.

    Extra integers select independent substreams, e.g. ``rng(seed, epoch)``.
    """
    return np.random.default_rng([int(s) for s in seeds])


class Value:
    """Node in the differentiation graph: data, grad, backward rule."""

    __slots__ = ("data", "_grad", "_flow", "requires_grad", "_parents", "_grad_fn", "_op",
                 "_kink_margin", "_kink_side")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 3:
            raise ShapeError(f"rank {arr.ndim} exceeds the supported maximum of 3")
        if arr.size == 0:
            raise ShapeError("all extents must be >= 1")
        self.data = arr
        self._grad = np.zeros_like(arr) if requires_grad else None
        self._flow = None  # backward's flows into a node without a buffer, not yet copied
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Value, ...] = ()
        self._grad_fn: GradFn | None = None
        self._op = "leaf"
        self._kink_margin = np.inf
        self._kink_side = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            flow, self._flow = self._flow, None
            self._grad = np.zeros_like(self.data) if flow is None else np.array(flow)
        return self._grad

    def zero_grad(self) -> None:
        self._flow = None
        if self._grad is not None:
            self._grad[...] = 0.0


def _lift(x) -> Value:
    return x if isinstance(x, Value) else Value(x)


def _node(data, parents: Sequence[Value], grad_fn: GradFn, op: str, kink_margin=np.inf,
          kink_side=None) -> Value:
    """A graph node.  kink_margin and kink_side are values or zero-argument thunks.

    A thunk reads the node's inputs when it is evaluated, so ask for the
    bookkeeping before mutating a parameter the graph was built from.
    """
    out = Value(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    out._parents = tuple(parents)
    out._grad_fn = grad_fn if out.requires_grad else None
    out._op = op
    # kinks in constant subtrees cannot be crossed by perturbing parameters
    out._kink_margin = kink_margin if out.requires_grad else np.inf
    # which side of its kinks the node sits on: relu masks, argmax indices
    out._kink_side = kink_side if out.requires_grad else None
    return out


def _evaluated(kink):
    return kink() if callable(kink) else kink


def zero_grads(params) -> None:
    """Zero the grad buffers of Values or (name, Value) pairs."""
    for p in params:
        v = p[1] if isinstance(p, tuple) else p
        v.zero_grad()


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
    """Accumulate d(root)/d(node) into .grad of every reachable node.

    Repeated calls without zero_grads add up (multi-loss semantics).  The
    per-call flow is kept in a scratch map so stale .grad contents never
    contaminate the propagation itself.  A grad_fn may return its flow g or
    views of it but never writes into g, because nodes keep flows uncopied.
    """
    if root.data.ndim != 0:
        raise UsageError("backward requires a scalar root")
    if not root.requires_grad:
        return
    order = _topo_order(root)
    flows: dict[int, np.ndarray] = {id(root): np.ones(())}
    for node in reversed(order):
        g = flows.pop(id(node), None)
        if g is None:
            continue
        if node._grad is not None:
            node._grad += g
        else:  # flows may alias one another: kept as is, copied on the first read of .grad
            node._flow = g if node._flow is None else node._flow + g
        if node._grad_fn is None:
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = flows.get(id(parent))
            flows[id(parent)] = pg if acc is None else acc + pg


def _walk(root: Value):
    """Every node reachable from root, once each, in a fixed order."""
    visited: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        yield node
        stack.extend(node._parents)


def min_kink_margin(root: Value) -> float:
    """Smallest distance to a ReLU/max kink recorded anywhere in the graph."""
    return min((float(_evaluated(node._kink_margin)) for node in _walk(root)), default=np.inf)


def _kink_sides(root: Value) -> list[np.ndarray]:
    """The side of its kinks each trainable ReLU/max/clamp node sits on.

    Two graphs built by the same code sit on the same side of every kink
    exactly when their lists are equal element by element.
    """
    return [_evaluated(node._kink_side) for node in _walk(root) if node._kink_side is not None]


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


def _ordersum(a: np.ndarray, axis: int) -> np.ndarray:
    # Addends sorted by value before summing: the result depends only on the
    # multiset of addends, never on their original order along `axis`.
    return np.sum(np.sort(a, axis=axis), axis=axis)


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------


def add(a, b) -> Value:
    a, b = _lift(a), _lift(b)
    out = a.data + b.data

    def grad_fn(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _node(out, (a, b), grad_fn, "add")


def mul(a, b) -> Value:
    a, b = _lift(a), _lift(b)
    out = a.data * b.data

    def grad_fn(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _node(out, (a, b), grad_fn, "mul")


def sum_all(x) -> Value:
    x = _lift(x)

    def grad_fn(g):
        return (np.full_like(x.data, float(g)),)

    return _node(x.data.sum(), (x,), grad_fn, "sum_all")


def relu(x) -> Value:
    """Elementwise max(x, 0): x where x > 0, else +0.0, also for -0.0 and NaN.

    The mask x > 0 is rebuilt from the output when backward or the kink
    bookkeeping asks for it.
    """
    x = _lift(x)
    xd = x.data
    # fmax drops NaN as np.where(x > 0, x, 0) does; adding +0.0 turns -0.0 into +0.0
    out = np.fmax(xd, 0.0)
    out += 0.0

    def grad_fn(g):
        return (g * (out > 0.0),)

    return _node(out, (x,), grad_fn, "relu",
                 kink_margin=lambda: np.abs(xd).min(), kink_side=lambda: out > 0.0)


def reshape(x, shape: tuple[int, ...]) -> Value:
    x = _lift(x)
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"cannot reshape {x.data.shape} to {shape}")

    def grad_fn(g):
        return (g.reshape(x.data.shape),)

    return _node(x.data.reshape(shape), (x,), grad_fn, "reshape")


def concat(values: Sequence, axis: int = 0) -> Value:
    vals = [_lift(v) for v in values]
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
        return tuple(piece.copy() if v.requires_grad else None
                     for v, piece in zip(vals, np.split(g, splits, axis=axis)))

    return _node(out, vals, grad_fn, "concat")


def stack(values: Sequence, axis: int = 0) -> Value:
    """Join values of equal shape along a new axis (numpy.stack)."""
    vals = [_lift(v) for v in values]
    if not vals:
        raise ConfigError("stack requires at least one value")
    ref = vals[0].data.shape
    for v in vals[1:]:
        if v.data.shape != ref:
            raise ShapeError(f"stack shapes disagree: {ref} vs {v.data.shape}")
    out = np.stack([v.data for v in vals], axis=axis)

    def grad_fn(g):
        return tuple(np.moveaxis(g, axis, 0))

    return _node(out, vals, grad_fn, "stack")


def take_rows(x, index) -> Value:
    """Rows of x picked along axis 0: out[i] = x[index[i]]."""
    x = _lift(x)
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


def matmul(a, b) -> Value:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects rank-2 operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.data.shape} x {b.data.shape}")

    def grad_fn(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _node(a.data @ b.data, (a, b), grad_fn, "matmul")


def affine(x, w, b) -> Value:
    """x @ w + b for a batch of rows x [B x D_in]."""
    return add(matmul(x, w), b)


def row_dot(x, w) -> Value:
    """Score every frame against every head vector.

    x [B x T x D] . w [H x D] -> [B x H x T].  Each score is its own sum
    over D, so it never depends on the other frames or heads.  One sequence
    against one vector, x [T x D] . w [D] -> [T], is the B = H = 1 case.
    """
    x, w = _lift(x), _lift(w)
    if x.data.ndim == 2 and w.data.ndim == 1:
        t, d = x.data.shape
        return reshape(row_dot(reshape(x, (1, t, d)), reshape(w, (1, d))), (t,))
    if x.data.ndim != 3 or w.data.ndim != 2 or x.data.shape[2] != w.data.shape[1]:
        raise ShapeError(f"row_dot shapes disagree: {x.data.shape} x {w.data.shape}")
    out = np.sum(x.data[:, None, :, :] * w.data[None, :, None, :], axis=-1)

    def grad_fn(g):
        return (np.matmul(g.transpose(0, 2, 1), w.data) if x.requires_grad else None,
                np.matmul(g, x.data).sum(axis=0) if w.requires_grad else None)

    return _node(out, (x, w), grad_fn, "row_dot")


def weighted_row_sum(weights, x) -> Value:
    """Pool frames with per-head weights, summing over t in canonical order.

    weights [B x H x T], x [B x T x D] -> [B x H x D], where
    out[b, h] = sum_t weights[b, h, t] * x[b, t].
    """
    weights, x = _lift(weights), _lift(x)
    wd, xd = weights.data, x.data
    if wd.ndim != 3 or xd.ndim != 3 or wd.shape[0] != xd.shape[0] or wd.shape[2] != xd.shape[1]:
        raise ShapeError(f"weighted_row_sum shapes disagree: {wd.shape} x {xd.shape}")
    out = _ordersum(xd[:, None, :, :] * wd[..., None], axis=-2)

    def grad_fn(g):
        return (np.matmul(g, xd.transpose(0, 2, 1)) if weights.requires_grad else None,
                np.matmul(wd.transpose(0, 2, 1), g) if x.requires_grad else None)

    return _node(out, (weights, x), grad_fn, "weighted_row_sum")


# ---------------------------------------------------------------------------
# attention primitives
# ---------------------------------------------------------------------------


def softmax_sharp(logits, alpha: float) -> Value:
    """softmax(alpha * logits) over the last axis, with max-subtraction.

    Any rank >= 1; every leading index is its own distribution.  alpha
    scales how peaked the distribution is.  The normalizer sums its
    exponentials in sorted order, so permuting the logits permutes the
    output bit-exactly.
    """
    logits = _lift(logits)
    if logits.data.ndim == 0:
        raise ShapeError("softmax_sharp expects a value of rank >= 1")
    if not alpha > 0.0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    if not np.all(np.isfinite(logits.data)):
        raise NumericError("softmax_sharp input contains non-finite entries")
    z = alpha * (logits.data - logits.data.max(axis=-1, keepdims=True))
    e = np.exp(z)
    y = e / _ordersum(e, axis=-1)[..., None]

    def grad_fn(g):
        return (alpha * y * (g - np.sum(g * y, axis=-1, keepdims=True)),)

    return _node(y, (logits,), grad_fn, "softmax_sharp")


def l2_normalize(v) -> Value:
    """v / max(||v||_2, 1e-12) over the last axis, at any rank >= 1.

    The clamp is treated as constant in backward.
    """
    v = _lift(v)
    if v.data.ndim == 0:
        raise ShapeError("l2_normalize expects a value of rank >= 1")
    norm = np.sqrt(np.sum(v.data * v.data, axis=-1, keepdims=True))
    denom = np.maximum(norm, EPS_NORM)
    y = v.data / denom

    def grad_fn(g):
        tangent = (g - y * np.sum(g * y, axis=-1, keepdims=True)) / denom
        return (np.where(norm < EPS_NORM, g / denom, tangent),)

    return _node(y, (v,), grad_fn, "l2_normalize",
                 kink_margin=lambda: np.abs(norm - EPS_NORM).min(),
                 kink_side=lambda: norm < EPS_NORM)


# ---------------------------------------------------------------------------
# temporal ops
# ---------------------------------------------------------------------------


def zero_pad_time(x, length: int) -> Value:
    """Fix the time extent to `length`: truncate the tail or pad zero frames.

    Time is the second-to-last axis; input may be [T x C] or [B x T x C].
    """
    x = _lift(x)
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


def _top2_gap(x: np.ndarray) -> float:
    """Smallest per-channel gap between the two largest frames; inf below 2 frames."""
    t = x.shape[-2]
    if t < 2:
        return np.inf
    top2 = np.partition(x, t - 2, axis=-2)[..., -2:, :]
    return float((top2[..., 1, :] - top2[..., 0, :]).min())


def adaptive_max_pool1d(x, n: int) -> Value:
    """Per-channel max over n contiguous segments [floor(iT/n), floor((i+1)T/n)).

    Time is the second-to-last axis.  Backward routes each segment's
    gradient to the earliest argmax frame.  With n == T every segment is one
    frame and the input comes back unchanged.  The frames are gathered into
    [.. x n x width x C], short segments repeating their last frame (a repeat
    never precedes its original, so the earliest argmax is a real frame);
    argmax and kink margin are computed on demand.
    """
    x = _lift(x)
    if x.data.ndim < 2:
        raise ShapeError("adaptive_max_pool1d expects a rank-2 or rank-3 value")
    t = x.data.shape[-2]
    if not 1 <= n <= t:
        raise ConfigError(f"segment count {n} must lie in [1, {t}]")
    if n == t:
        return x
    bounds = _segment_bounds(t, n)
    lo, hi = np.array(bounds).T
    index = np.minimum(lo[:, None] + np.arange((hi - lo).max()), hi[:, None] - 1)
    segments = np.take(x.data, index, axis=-2)
    argmax = functools.cache(lambda: np.argmax(segments, axis=-2))  # within each segment

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        # one argmax per (segment, batch, channel), so a plain scatter is exact
        np.put_along_axis(gx, argmax() + lo[:, None], g, axis=-2)
        return (gx,)

    return _node(_max_time(segments), (x,), grad_fn, "adaptive_max_pool1d",
                 kink_margin=lambda: min(_top2_gap(x.data[..., a:b, :]) for a, b in bounds),
                 kink_side=argmax)


def global_max_pool_time(x) -> Value:
    """Per-channel max over the whole time axis (earliest argmax wins ties).

    [T x C] -> [C]; [B x T x C] -> [B x C].  The argmax is computed only for
    backward or the kink bookkeeping.
    """
    x = _lift(x)
    if x.data.ndim < 2:
        raise ShapeError("global_max_pool_time expects a rank-2 or rank-3 value")
    xd = x.data
    argmax = functools.cache(lambda: np.argmax(xd, axis=-2))

    def grad_fn(g):
        gx = np.zeros_like(xd)
        np.put_along_axis(gx, argmax()[..., None, :], g[..., None, :], axis=-2)
        return (gx,)

    return _node(_max_time(xd), (x,), grad_fn, "global_max_pool_time",
                 kink_margin=lambda: _top2_gap(xd), kink_side=argmax)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


def depthwise_conv1d(x, kernels) -> Value:
    """Per-channel temporal cross-correlation with same-length zero padding.

    y[.., t, c] = sum_j kernels[j, c] * x[.., t + j - (k-1)/2, c], with
    out-of-range x = 0.  Channels never mix; kernel length must be odd.
    Input may be [T x C] or [B x T x C].  Every tap's products go through
    one scratch buffer, forward and backward.
    """
    x, kernels = _lift(x), _lift(kernels)
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
    out = np.zeros_like(x.data)
    prod = np.empty_like(x.data)
    for j in range(k):
        out += np.multiply(kernels.data[j], xpad[..., j:j + t, :], out=prod)

    def grad_fn(g):
        prod = np.empty_like(g)
        gx = gk = None
        if x.requires_grad:
            gpad = np.zeros(x.data.shape[:-2] + (t + 2 * p, c))
            gpad[..., p:p + t, :] = g
            gx = np.zeros_like(x.data)
            for j in range(k):
                gx += np.multiply(kernels.data[j], gpad[..., 2 * p - j:2 * p - j + t, :], out=prod)
        if kernels.requires_grad:
            gk = np.empty_like(kernels.data)
            for j in range(k):
                gk[j] = np.multiply(g, xpad[..., j:j + t, :], out=prod).reshape(-1, c).sum(axis=0)
        return gx, gk

    return _node(out, (x, kernels), grad_fn, "depthwise_conv1d")


def pointwise_conv1d(x, w, bias) -> Value:
    """Per-timestep affine channel map: y[.., t, :] = x[.., t, :] @ w + bias.

    Input may be [T x C_in] or [B x T x C_in].
    """
    x, w, bias = _lift(x), _lift(w), _lift(bias)
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

    def copy(self) -> "BnState":
        return BnState(self.mean.copy(), self.var.copy())


def batch_norm(x, gamma, beta, state: BnState, mode: str = "train",
               momentum: float = BN_MOMENTUM, eps: float = EPS_BN) -> Value:
    """Per-channel normalization over every batch/time position.

    Train mode normalizes with the batch statistics (biased variance) and
    folds them into `state`; infer mode normalizes with `state` and leaves
    it untouched.  Accepts rank-2 [T x C] (treated as batch 1) or rank-3
    [B x T x C] input.  The data is centred once, for the variance and xhat
    alike, and the rest runs in place on the output and one scratch buffer,
    with np.mean's and np.var's arithmetic, so the bits are theirs.
    """
    x, gamma, beta = _lift(x), _lift(gamma), _lift(beta)
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
        state.mean[:] = momentum * state.mean + (1.0 - momentum) * mean
        state.var[:] = momentum * state.var + (1.0 - momentum) * var
    else:
        xhat = flat - state.mean
        out = np.empty_like(flat)
        var = state.var
    ivar = 1.0 / np.sqrt(var + eps)
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


def cross_entropy(logits, labels) -> Value:
    """Mean over the batch of -log softmax(logits)[label], in the log domain."""
    logits = _lift(logits)
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


def fd_check(f: Callable[[], Value], params, step: float = 1e-3, tol: float = 1e-4) -> FdReport:
    """Compare analytic gradients of the scalar f() against central differences.

    `params` is a list of Values or (name, Value) pairs; their .data buffers
    are perturbed in place, one coordinate at a time, and restored.  Errors
    are normalized by the largest gradient magnitude seen (floored at 1e-6)
    so near-zero coordinates do not divide by noise.

    Failing coordinates are probed again (``_step_explains``): when each
    one's step crossed a kink or was too coarse for the local curvature,
    the report says ``step_unfit`` and central differences at this step are
    no oracle for the sample.
    """
    if not step > 0.0:
        raise ConfigError("finite-difference step must be positive")
    named = [p if isinstance(p, tuple) else (f"param{i}", p) for i, p in enumerate(params)]
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

    scale = max(max((np.abs(a).max() for a in analytic), default=0.0),
                max((np.abs(n).max() for n in numeric), default=0.0), 1e-6)
    max_rel = 0.0
    worst = named[0][0] if named else ""
    coords = 0
    failing = []
    for (name, v), a, n in zip(named, analytic, numeric):
        coords += a.size
        err = np.abs(a - n)
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
    wrong gradient, whose error would stay put.
    """
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
