"""Reverse-mode automatic differentiation on small dense tensors.

Everything is float64. Tensors are rank 0 to 3 numpy arrays. Recording
happens on an explicit Tape: operations whose inputs live on a tape append
one node to an append-only list, so node ids are already topologically
ordered and backward() is a single reverse sweep with per-node gradient
accumulation. Tensors built with constant() participate in arithmetic but
receive no gradient.

Broadcasting is deliberately narrow: two operands must have equal shapes,
or one operand's shape must equal the trailing dimensions of the other's
(a row vector onto a matrix, a step-by-feature matrix onto a batch, a
scalar onto anything). Nothing else broadcasts; mismatches raise ShapeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, ShapeError

MAX_RANK = 3
LOG_FLOOR = 1e-300


def _as_array(data) -> np.ndarray:
    # ascontiguousarray would promote scalars to rank 1 and break the
    # empty-suffix broadcast case, so keep 0-d inputs 0-d
    arr = np.asarray(data, dtype=np.float64)
    if not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    if arr.ndim > MAX_RANK:
        raise ShapeError(f"tensor rank {arr.ndim} exceeds the cap of {MAX_RANK}")
    return arr


class Tensor:
    """A float64 array, optionally recorded on a Tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data: np.ndarray, tape: "Tape | None", node_id: int):
        self.data = data
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def grad(self) -> np.ndarray | None:
        """Gradient from the most recent backward() on this tensor's tape."""
        if self.tape is None or self.tape._grads is None:
            return None
        if self.node_id >= len(self.tape._grads):
            return None
        return self.tape._grads[self.node_id]

    def __repr__(self):
        tag = "const" if self.tape is None else f"node {self.node_id}"
        return f"Tensor({tag}, shape={self.data.shape})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


def constant(data) -> Tensor:
    """Wrap an array as a non-recorded tensor."""
    return Tensor(_as_array(data), None, -1)


class Tape:
    """Append-only record of operations for one backward pass."""

    def __init__(self):
        self._backs: list[Callable | None] = []
        self._grads: list[np.ndarray | None] | None = None

    def __len__(self):
        return len(self._backs)

    def _append(self, back: Callable | None) -> int:
        self._backs.append(back)
        return len(self._backs) - 1

    def leaf(self, data) -> Tensor:
        """Record an input tensor whose gradient should be computed."""
        return Tensor(_as_array(data), self, self._append(None))

    def backward(self, out: Tensor) -> None:
        """Run one reverse sweep from a scalar output.

        Gradients for every node are stored on the tape and exposed through
        Tensor.grad. Traversal is in strictly decreasing node id order, once
        per node, so results are bitwise deterministic.
        """
        if out.tape is not self:
            raise InvalidInputError("backward: output does not belong to this tape")
        if out.data.size != 1:
            raise InvalidInputError(
                f"backward: output must be a scalar, got shape {out.data.shape}"
            )
        grads: list[np.ndarray | None] = [None] * len(self._backs)
        grads[out.node_id] = np.ones_like(out.data)
        for nid in range(out.node_id, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            back = self._backs[nid]
            if back is None:
                continue
            for in_id, contrib in back(g):
                cur = grads[in_id]
                # never accumulate in place: contributions may alias saved arrays
                grads[in_id] = contrib if cur is None else cur + contrib
        self._grads = grads


def record_fused(data: np.ndarray, inputs: Sequence[Tensor],
                 backward: Callable[[np.ndarray], Sequence[np.ndarray]]) -> Tensor:
    """Build the result tensor, appending one tape node if any input is recorded.

    backward maps the output gradient to the gradients of every input,
    in the order of inputs, in one call; only the recorded inputs'
    gradients are kept. A model can record a whole plain-numpy
    computation this way, with a hand-written backward.
    """
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise InvalidInputError("operands were recorded on different tapes")
    if tape is None:
        return Tensor(data, None, -1)
    # node ids, not tensors: a tensor holds its tape, so a node holding one
    # makes a reference cycle that keeps the tape and every array its
    # nodes saved alive until the cyclic collector runs
    tracked = [(i, t.node_id) for i, t in enumerate(inputs) if t.tape is not None]

    def back(g):
        grads = backward(g)
        return [(nid, grads[i]) for i, nid in tracked]

    return Tensor(data, tape, tape._append(back))


def _record(data: np.ndarray, parts: Sequence[tuple[Tensor, Callable]]) -> Tensor:
    """record_fused with one gradient function per input.

    parts pairs each differentiable input with a function mapping the output
    gradient to that input's gradient contribution; only the recorded
    inputs' functions run.
    """
    tracked = [(t, fn) for t, fn in parts if t.tape is not None]
    fns = [fn for _, fn in tracked]   # the backward holds no tensor, as above
    return record_fused(data, [t for t, _ in tracked], lambda g: [fn(g) for fn in fns])


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return constant(x)


def _suffix_case(a_shape, b_shape, op: str) -> int:
    """0: equal shapes, 1: b broadcasts onto a, 2: a broadcasts onto b."""
    if a_shape == b_shape:
        return 0
    if len(b_shape) < len(a_shape) and a_shape[len(a_shape) - len(b_shape):] == b_shape:
        return 1
    if len(a_shape) < len(b_shape) and b_shape[len(b_shape) - len(a_shape):] == a_shape:
        return 2
    raise ShapeError(f"{op}: incompatible shapes {a_shape} and {b_shape}")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum the leading axes of g so the result has the given trailing shape."""
    lead = g.ndim - len(shape)
    if lead == 0:
        return g
    return g.sum(axis=tuple(range(lead)))


def _elementwise(a, b, op, fwd, da, db) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    case = _suffix_case(a.shape, b.shape, op)
    out = fwd(a.data, b.data)
    a_fn = (lambda g: da(g, a.data, b.data)) if case != 2 else (
        lambda g: _reduce_to(da(g, a.data, b.data), a.shape))
    b_fn = (lambda g: db(g, a.data, b.data)) if case != 1 else (
        lambda g: _reduce_to(db(g, a.data, b.data), b.shape))
    return _record(out, [(a, a_fn), (b, b_fn)])


def add(a, b) -> Tensor:
    return _elementwise(a, b, "add", lambda x, y: x + y,
                        lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _elementwise(a, b, "sub", lambda x, y: x - y,
                        lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _elementwise(a, b, "mul", lambda x, y: x * y,
                        lambda g, x, y: g * y, lambda g, x, y: g * x)


def matmul(a, b) -> Tensor:
    """Matrix product. Supports (m,k)@(k,n), (B,m,k)@(k,n), (B,m,k)@(B,k,n)."""
    a, b = _coerce(a), _coerce(b)
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeError(f"matmul: incompatible shapes {ad.shape} and {bd.shape}")
        out = ad @ bd
        return _record(out, [(a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g)])
    if ad.ndim == 3 and bd.ndim == 2:
        if ad.shape[2] != bd.shape[0]:
            raise ShapeError(f"matmul: incompatible shapes {ad.shape} and {bd.shape}")
        out = ad @ bd
        return _record(out, [
            (a, lambda g: g @ bd.T),
            (b, lambda g: np.tensordot(ad, g, axes=([0, 1], [0, 1]))),
        ])
    if ad.ndim == 3 and bd.ndim == 3:
        if ad.shape[0] != bd.shape[0] or ad.shape[2] != bd.shape[1]:
            raise ShapeError(f"matmul: incompatible shapes {ad.shape} and {bd.shape}")
        out = ad @ bd
        return _record(out, [
            (a, lambda g: g @ bd.swapaxes(-1, -2)),
            (b, lambda g: ad.swapaxes(-1, -2) @ g),
        ])
    raise ShapeError(f"matmul: unsupported ranks {ad.shape} and {bd.shape}")


# rows per block of at_b's reduction
AT_B_ROWS = 256


def at_b(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^T b for a (K, M) and b (..., K, N), reduced over K in fixed blocks.

    A matmul's sum over K is split by BLAS in ways that depend on the
    thread count, so its bits do too; fixing how the sum is blocked fixes
    them (Demmel and Nguyen, "Parallel Reproducible Summation", 2015).
    Each AT_B_ROWS-row block, the tail last, takes one matmul, and its
    product is added into the running sum in block order; the first
    block's product is the sum's array. The bits depend on the values
    and shapes alone. Leading axes of b give one product per index, as
    matmul broadcasts.
    """
    acc = a[:AT_B_ROWS].T @ b[..., :AT_B_ROWS, :]
    for lo in range(AT_B_ROWS, a.shape[0], AT_B_ROWS):
        acc += a[lo:lo + AT_B_ROWS].T @ b[..., lo:lo + AT_B_ROWS, :]
    return acc


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = _coerce(a)
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: needs rank >= 2, got shape {a.shape}")
    out = np.ascontiguousarray(a.data.swapaxes(-1, -2))
    return _record(out, [(a, lambda g: g.swapaxes(-1, -2))])


def sigmoid_array(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function on a plain array, as 0.5 * tanh(x / 2) + 0.5.

    tanh saturates instead of overflowing, so any finite input gives a
    finite result, with no branch on the sign. out may be x itself.
    """
    if out is None:
        out = np.empty(np.shape(x))
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    out = sigmoid_array(a.data)
    return _record(out, [(a, lambda g: g * out * (1.0 - out))])


def tanh(a) -> Tensor:
    a = _coerce(a)
    out = np.tanh(a.data)
    return _record(out, [(a, lambda g: g * (1.0 - out * out))])


def relu(a) -> Tensor:
    a = _coerce(a)
    out = np.maximum(a.data, 0.0)
    mask = (a.data > 0).astype(np.float64)
    return _record(out, [(a, lambda g: g * mask)])


def exp(a) -> Tensor:
    a = _coerce(a)
    out = np.exp(a.data)
    return _record(out, [(a, lambda g: g * out)])


def log(a) -> Tensor:
    """Natural log with the argument floored at 1e-300."""
    a = _coerce(a)
    safe = np.maximum(a.data, LOG_FLOOR)
    out = np.log(safe)
    return _record(out, [(a, lambda g: g / safe)])


def softmax_array(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a plain array, with max subtraction."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(a) -> Tensor:
    """Softmax over the last axis, computed with max subtraction."""
    a = _coerce(a)
    out = softmax_array(a.data)

    def back(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return out * (g - inner)

    return _record(out, [(a, back)])


def concat(parts: Sequence) -> Tensor:
    """Concatenate tensors along the last axis."""
    if len(parts) == 0:
        raise InvalidInputError("concat: needs at least one tensor")
    ts = [_coerce(p) for p in parts]
    ranks = {t.data.ndim for t in ts}
    if len(ranks) != 1:
        raise ShapeError(f"concat: mixed ranks {[t.shape for t in ts]}")
    lead = {t.shape[:-1] for t in ts}
    if len(lead) != 1:
        raise ShapeError(f"concat: leading dimensions differ {[t.shape for t in ts]}")
    out = np.concatenate([t.data for t in ts], axis=-1)
    widths = [t.shape[-1] for t in ts]
    offsets = np.cumsum([0] + widths)
    pairs = []
    for i, t in enumerate(ts):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        pairs.append((t, lambda g, lo=lo, hi=hi: g[..., lo:hi]))
    return _record(out, pairs)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    """Take elements [start, stop) along one axis, keeping the rank."""
    a = _coerce(a)
    nd = a.data.ndim
    if not -nd <= axis < nd:
        raise ShapeError(f"slice_axis: axis {axis} out of range for shape {a.shape}")
    axis = axis % nd
    dim = a.shape[axis]
    if not (0 <= start < stop <= dim):
        raise InvalidInputError(
            f"slice_axis: bounds [{start}, {stop}) invalid for dimension {dim}")
    index = tuple(slice(None) if i != axis else slice(start, stop) for i in range(nd))
    out = np.ascontiguousarray(a.data[index])

    def back(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return full

    return _record(out, [(a, back)])


def _normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    axes = []
    for ax in axis:
        if not -ndim <= ax < ndim:
            raise ShapeError(f"reduce: axis {ax} out of range for rank {ndim}")
        axes.append(ax % ndim)
    if len(set(axes)) != len(axes):
        raise InvalidInputError(f"reduce: repeated axis in {axis}")
    return tuple(sorted(axes))


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    axes = _normalize_axes(axis, a.data.ndim)
    out = a.data.sum(axis=axes if axes else None, keepdims=keepdims)
    shape = a.shape

    def back(g):
        gg = g if keepdims or not axes else np.expand_dims(g, axes)
        return np.broadcast_to(gg, shape)

    return _record(np.asarray(out), [(a, back)])


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    axes = _normalize_axes(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    if count == 0:
        raise InvalidInputError("reduce_mean: cannot average over zero elements")
    out = a.data.mean(axis=axes if axes else None, keepdims=keepdims)
    shape = a.shape
    scale = 1.0 / count

    def back(g):
        gg = g if keepdims or not axes else np.expand_dims(g, axes)
        return np.broadcast_to(gg * scale, shape)

    return _record(np.asarray(out), [(a, back)])


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    shape = tuple(int(s) for s in shape)
    if len(shape) > MAX_RANK:
        raise ShapeError(f"reshape: rank {len(shape)} exceeds the cap of {MAX_RANK}")
    out = np.reshape(a.data, shape)
    src = a.shape
    return _record(np.ascontiguousarray(out), [(a, lambda g: g.reshape(src))])


def masked_fill(a, mask, fill: float) -> Tensor:
    """Replace entries where mask is nonzero with a constant.

    The mask is data, not a differentiable input; gradients flow only
    through the kept entries. The mask's shape must equal the tensor's or
    its trailing dimensions.
    """
    a = _coerce(a)
    mask_arr = mask.data if isinstance(mask, Tensor) else np.asarray(mask, dtype=np.float64)
    if _suffix_case(a.shape, mask_arr.shape, "masked_fill") == 2:
        raise ShapeError(
            f"masked_fill: mask shape {mask_arr.shape} exceeds tensor shape {a.shape}")
    hit = np.broadcast_to(mask_arr != 0, a.shape)
    out = np.where(hit, float(fill), a.data)
    keep = (~hit).astype(np.float64)
    return _record(out, [(a, lambda g: g * keep)])


def masked_mse(pred, target, mask) -> Tensor:
    """Mean squared error over cells where mask is nonzero (scalar output)."""
    pred, target = _coerce(pred), _coerce(target)
    mask_arr = mask.data if isinstance(mask, Tensor) else np.asarray(mask, dtype=np.float64)
    if pred.shape != target.shape or pred.shape != mask_arr.shape:
        raise ShapeError(
            f"masked_mse: shapes differ {pred.shape}, {target.shape}, {mask_arr.shape}")
    hit = (mask_arr != 0).astype(np.float64)
    count = hit.sum()
    if count == 0:
        raise InvalidInputError("masked_mse: mask selects no cells")
    diff = (pred.data - target.data) * hit
    out = np.asarray((diff * diff).sum() / count)
    scale = 2.0 / count
    return _record(out, [
        (pred, lambda g: g * scale * diff),
        (target, lambda g: -g * scale * diff),
    ])


def cross_entropy_array(z: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """Sum over the rows of (N, C) logits of -log softmax(z)[label],
    computed stably, and its gradient with respect to z: softmax(z) minus
    the one-hot labels. Labels outside [0, C) are refused.
    """
    n, c = z.shape
    lab = np.asarray(labels).astype(np.int64)
    if lab.size and (lab.min() < 0 or lab.max() >= c):
        raise InvalidInputError(f"cross_entropy: labels outside [0, {c})")
    rows = np.arange(n)
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    sums = e.sum(axis=1, keepdims=True)
    log_probs = (z - m) - np.log(sums)
    loss = np.asarray(-log_probs[rows, lab].sum())
    d_z = e / sums
    d_z[rows, lab] -= 1.0
    return loss, d_z


def cross_entropy_with_logits(logits, labels) -> Tensor:
    """cross_entropy_array recorded on the tape: the batch total (callers
    divide by the batch size), whose gradient is softmax(logits) minus the
    one-hot labels, scaled by the upstream gradient.
    """
    logits = _coerce(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be rank 2, got {logits.shape}")
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"cross_entropy: labels shape {lab.shape} does not match logits {logits.shape}")
    out, d_z = cross_entropy_array(logits.data, lab)
    return _record(out, [(logits, lambda g: g * d_z)])


def grad_check(f, x: np.ndarray, h: float = 1e-5) -> float:
    """Compare analytic gradients of f at x with central finite differences.

    f maps one tensor to a scalar tensor. Returns the maximum relative
    error max |a - n| / max(1e-12, |a| + |n|) over all coordinates.
    """
    x = _as_array(x)
    tape = Tape()
    xt = tape.leaf(x)
    out = f(xt)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise InvalidInputError("grad_check: f must return a scalar tensor")
    tape.backward(out)
    analytic = xt.grad
    if analytic is None:
        analytic = np.zeros_like(x)
    numeric = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        fp = float(f(constant(xp)).data)
        fm = float(f(constant(xm)).data)
        numeric[idx] = (fp - fm) / (2.0 * h)
    denom = np.maximum(1e-12, np.abs(analytic) + np.abs(numeric))
    if numeric.size == 0:
        return 0.0
    return float((np.abs(analytic - numeric) / denom).max())


@dataclass
class AdamState:
    """Adam's first and second moment estimates, flat over every parameter.

    layout lists the (name, shape) of each parameter, in the order of the
    params dict the state was made for (for_params); adam_step refuses
    params that differ from it. m and v are float64 vectors holding each
    parameter's moments as one slice, in that order, and two more vectors
    of their length are adam_step's buffers, so a step allocates nothing
    of the parameters' size.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    layout: list = field(default_factory=list)

    def __post_init__(self):
        size = sum(math.prod(shape) for _, shape in self.layout)
        self.m, self.v, self._grad, self._work = np.zeros((4, size))

    @classmethod
    def for_params(cls, params: dict, lr: float = 1e-3, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(lr=lr, beta1=beta1, beta2=beta2, eps=eps,
                   layout=[(name, np.shape(p)) for name, p in params.items()])


def adam_step(params: dict, grads: dict, state: AdamState):
    """One Adam update, in place on the parameter arrays.

    Parameters missing from grads (or mapped to None) decay their moments
    with a zero gradient. The gradients are gathered into one flat vector
    and the update runs once over all of it; every operation is
    elementwise, so each parameter gets the bits of an update of its own.
    A params dict whose names or shapes differ from the state's layout is
    refused. Returns (params, state).
    """
    if [(name, p.shape) for name, p in params.items()] != state.layout:
        raise InvalidInputError(
            "adam_step: the parameters' names and shapes differ from the state's")
    g, work, m, v = state._grad, state._work, state.m, state.v
    slices, lo = [], 0
    for name, p in params.items():
        view = g[lo:lo + p.size].reshape(p.shape)
        lo += p.size
        grad = grads.get(name)
        view[...] = 0.0 if grad is None else grad
        slices.append((p, view))
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    m *= state.beta1
    m += np.multiply(g, 1.0 - state.beta1, out=work)
    v *= state.beta2
    np.multiply(g, g, out=g)
    g *= 1.0 - state.beta2
    v += g
    # the step lr * (m / c1) / (sqrt(v / c2) + eps), into g
    np.divide(v, c2, out=work)
    np.sqrt(work, out=work)
    work += state.eps
    np.divide(m, c1, out=g)
    g *= state.lr
    g /= work
    for p, step in slices:
        p -= step
    return params, state
