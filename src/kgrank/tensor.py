"""Minimal reverse-mode autodiff over float64 numpy arrays.

Forward primitives record their inputs and an analytic backward rule; calling
backward() on a scalar loss walks the recorded graph once in reverse
topological order and adds into the gradient array that every leaf holds.
Repeated backward calls keep adding until zero_grad().

Every primitive also accepts plain numpy arrays. A Tensor is always
differentiable and a plain array is always a constant: given no Tensor input,
a primitive returns the plain result of the same kernel, records nothing and
skips the per-op finite check (layer_norm and gelu then also write their
output over a temporary that only a backward would read, which saves a fresh
array per call); given a mix, the plain arrays are constants of the recorded
op. The type of the arguments is the only switch between the two,
so one model body serves both training on the tape and tape-free inference.

Randomness is never drawn inside a primitive: noise enters as an explicit
constant input, so any forward pass can be replayed exactly for the
finite-difference checker at the bottom of this module.

Design constraints: float64 everywhere; no broadcasting beyond Python scalars,
except the (1, d) row weights of linear and layer_norm and the constant key
bias of attention (gather_rows repeats rows for any other expansion);
non-finite values raise at the producing operation of a recorded op.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from pathlib import Path

import numpy as np

from .errors import ComputationError, ParseError, ShapeError, UsageError
from .fileio import load_arrays, save_arrays

LAYER_NORM_EPS = 1e-5

GradFn = Callable[[np.ndarray], np.ndarray]


class Tensor:
    """A differentiable n-dimensional float64 array: a leaf, or a node of the
    tape. A leaf always holds a gradient array of its shape (np.zeros: no page
    is committed until written); a tape node keeps none."""

    __slots__ = ("data", "grad", "op", "_parents", "_grad_fns")
    # numpy defers to the reflected operators below, so array + Tensor records
    __array_ufunc__ = None

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ComputationError("leaf tensor contains non-finite values")
        self.data = arr
        self.grad = np.zeros(arr.shape)
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fns: tuple[GradFn, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r})"

    # operator sugar; Tensor op Tensor/array needs matching shapes, numbers are scalars
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)


Operand = Tensor | np.ndarray


def _data(x: Operand) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else x


def _result(op: str, data: np.ndarray, inputs: Sequence, grad_fns: Sequence[GradFn]):
    """The output of a primitive. With no Tensor among inputs it is data
    itself; otherwise a tape node whose parents are its Tensor inputs
    (plain-array inputs are constants)."""
    for x in inputs:
        if isinstance(x, Tensor):
            break
    else:
        return data
    if not np.all(np.isfinite(data)):
        raise ComputationError(f"{op}: produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.op = op
    live = [(x, fn) for x, fn in zip(inputs, grad_fns) if isinstance(x, Tensor)]
    out._parents = tuple(x for x, _ in live)
    out._grad_fns = tuple(fn for _, fn in live)
    return out


def _identity(g: np.ndarray) -> np.ndarray:
    return g


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


# ---------------------------------------------------------------------------
# Primitives.

def add(a: Operand, b) -> Operand:
    if isinstance(b, (Tensor, np.ndarray)):
        ad, bd = _data(a), _data(b)
        if ad.shape != bd.shape:
            raise ShapeError("add", ad.shape, bd.shape)
        return _result("add", ad + bd, (a, b), (_identity, _identity))
    s = float(b)
    return _result("add_scalar", _data(a) + s, (a,), (_identity,))


def mul(a: Operand, b) -> Operand:
    if isinstance(b, (Tensor, np.ndarray)):
        ad, bd = _data(a), _data(b)
        if ad.shape != bd.shape:
            raise ShapeError("mul", ad.shape, bd.shape)
        return _result("mul", ad * bd, (a, b), (lambda g: g * bd, lambda g: g * ad))
    s = float(b)
    return _result("mul_scalar", _data(a) * s, (a,), (lambda g: g * s,))


def matmul(a: Operand, b: Operand) -> Operand:
    """Matrix product of 2-D operands, or of stacks of matrices with equal
    leading axes (a batched product, no broadcasting)."""
    ad, bd = _data(a), _data(b)
    if (ad.ndim < 2 or ad.ndim != bd.ndim or ad.shape[:-2] != bd.shape[:-2]
            or ad.shape[-1] != bd.shape[-2]):
        raise ShapeError("matmul", ad.shape, bd.shape)
    return _result("matmul", ad @ bd, (a, b),
                   (lambda g: g @ _swap(bd), lambda g: _swap(ad) @ g))


def linear(x: Operand, w: Operand, b: Operand) -> Operand:
    """x @ w over the last axis of x, plus the (1, d_out) row bias b added to
    every row; the bias is never expanded."""
    xd, wd, bd = _data(x), _data(w), _data(b)
    if wd.ndim != 2 or xd.ndim < 2 or xd.shape[-1] != wd.shape[0] or bd.shape != (1, wd.shape[1]):
        raise ShapeError("linear", xd.shape, wd.shape, bd.shape)
    n_in, n_out = wd.shape
    y = xd @ wd
    y += bd  # in place: no second output-sized array
    return _result("linear", y, (x, w, b),
                   (lambda g: g @ wd.T,
                    lambda g: xd.reshape(-1, n_in).T @ g.reshape(-1, n_out),
                    lambda g: g.reshape(-1, n_out).sum(axis=0, keepdims=True)))


def reshape(a: Operand, shape: tuple[int, ...]) -> Operand:
    ad = _data(a)
    if math.prod(shape) != ad.size:
        raise ShapeError("reshape", ad.shape, tuple(shape))
    old = ad.shape
    return _result("reshape", ad.reshape(shape), (a,), (lambda g: g.reshape(old),))


def _along(axis: int, ndim: int, lo: int, hi: int) -> tuple:
    """The index of entries lo:hi along one axis."""
    return (slice(None),) * (axis % ndim) + (slice(lo, hi),)


def concat(tensors: Sequence[Operand], axis: int = 0) -> Operand:
    if not tensors:
        raise UsageError("concat of zero tensors")
    if len(tensors) == 1:
        return tensors[0]
    arrays = [_data(t) for t in tensors]
    ndim = arrays[0].ndim
    if any(arr.ndim != ndim for arr in arrays):
        raise ShapeError("concat", *(arr.shape for arr in arrays))
    offsets = list(itertools.accumulate((arr.shape[axis] for arr in arrays), initial=0))
    return _result("concat", np.concatenate(arrays, axis=axis), tuple(tensors),
                   tuple(lambda g, index=_along(axis, ndim, lo, hi): g[index]
                         for lo, hi in zip(offsets, offsets[1:])))


def split(a: Operand, sizes: Sequence[int], axis: int = 0) -> list:
    ad = _data(a)
    if sum(sizes) != ad.shape[axis]:
        raise ShapeError("split", ad.shape, (sum(sizes),))
    if len(sizes) == 1:
        return [a]
    offsets = list(itertools.accumulate(sizes, initial=0))
    outs = []
    for lo, hi in zip(offsets, offsets[1:]):
        index = _along(axis, ad.ndim, lo, hi)

        def fn(g: np.ndarray, index=index) -> np.ndarray:
            out = np.zeros_like(ad)
            out[index] = g
            return out

        outs.append(_result("split", ad[index], (a,), (fn,)))
    return outs


def gather_rows(a: Operand, indices) -> Operand:
    """Select rows along axis 0, repeats allowed (an embedding lookup, or a
    row repeated n times by n zeros); backward scatter-adds."""
    ad = _data(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows", ad.shape, tuple(idx.shape))
    try:  # as unsigned, a negative index is out of range instead of wrapping
        rows = ad[idx.view(np.uintp)]
    except IndexError as exc:
        raise UsageError(f"gather_rows: index out of range for shape {ad.shape}") from exc

    def fn(g: np.ndarray) -> np.ndarray:
        out = np.zeros_like(ad)
        np.add.at(out, idx, g)
        return out

    return _result("gather_rows", rows, (a,), (fn,))


def scatter_rows(a: Operand, indices, rows: Operand) -> Operand:
    """A copy of a whose rows at the strictly increasing indices are replaced
    by rows."""
    ad, rd = _data(a), _data(rows)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or rd.shape != (idx.size,) + ad.shape[1:]:
        raise ShapeError("scatter_rows", ad.shape, rd.shape)
    if idx.size and (idx[0] < 0 or idx[-1] >= ad.shape[0] or (idx[1:] <= idx[:-1]).any()):
        raise UsageError(f"scatter_rows: row indices must rise strictly within {ad.shape[0]}")
    out = ad.copy()
    out[idx] = rd

    def to_a(g: np.ndarray) -> np.ndarray:
        g = g.copy()
        g[idx] = 0.0
        return g

    return _result("scatter_rows", out, (a, rows), (to_a, lambda g: g[idx]))


_GELU_C = math.sqrt(2.0 / math.pi)


def softmax(a: Operand) -> Operand:
    """Softmax over the last axis; rows sum to 1."""
    ad = _data(a)
    y = ad - ad.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def fn(g: np.ndarray) -> np.ndarray:
        return y * (g - (g * y).sum(axis=-1, keepdims=True))

    return _result("softmax", y, (a,), (fn,))


def attention(q: Operand, k: Operand, v: Operand, heads: int,
              key_bias: np.ndarray) -> Operand:
    """Multi-head scaled dot-product attention as one op: the (B, Lq, d)
    queries q over the (B, Lk, d) keys k and values v. Head h owns columns
    h*dh:(h+1)*dh of each (dh = d / heads) and of the (B, Lq, d) result; its
    scores are q_h k_h^T / sqrt(dh) plus the plain (B, 1, Lk) key_bias, -inf on
    padded keys, which then get weight exactly 0. The heads are strided views,
    never copied out, and the tape keeps only the softmax weights."""
    qd, kd, vd = _data(q), _data(k), _data(v)
    if (qd.ndim != 3 or kd.ndim != 3 or kd.shape != vd.shape or kd.shape[0] != qd.shape[0]
            or kd.shape[2] != qd.shape[2] or heads < 1 or qd.shape[2] % heads
            or key_bias.shape != (qd.shape[0], 1, kd.shape[1])):
        raise ShapeError("attention", qd.shape, kd.shape, vd.shape, key_bias.shape)
    dh = qd.shape[2] // heads
    scale = 1.0 / math.sqrt(dh)

    def by_head(a: np.ndarray) -> np.ndarray:  # (B, L, d) -> a (B, H, L, dh) view
        return a.reshape(a.shape[0], a.shape[1], heads, dh).transpose(0, 2, 1, 3)

    def joined(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """A fresh (B, L, d) array and its by_head view, for a product to fill."""
        out = np.empty(shape)
        return out, by_head(out)

    q4, k4, v4 = by_head(qd * scale), by_head(kd), by_head(vd)
    att = q4 @ _swap(k4)
    att += key_bias[:, None]
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    out, out4 = joined(qd.shape)
    np.matmul(att, v4, out=out4)

    # backward runs one node's rules in a row, q's before k's: q's rule hands
    # the scores' gradient to k's, so that it is made once and dies with the step
    handed: list[np.ndarray] = []

    def scores_grad(g: np.ndarray) -> np.ndarray:
        ds = by_head(g) @ _swap(v4)
        ds -= (ds * att).sum(axis=-1, keepdims=True)
        ds *= att
        return ds

    def to_q(g: np.ndarray) -> np.ndarray:
        ds = scores_grad(g)
        if isinstance(k, Tensor):
            handed.append(ds)
        dq, dq4 = joined(qd.shape)
        np.matmul(ds, k4, out=dq4)
        dq *= scale
        return dq

    def to_k(g: np.ndarray) -> np.ndarray:
        ds = handed.pop() if handed else scores_grad(g)
        dk, dk4 = joined(kd.shape)
        np.matmul(_swap(ds), q4, out=dk4)
        return dk

    def to_v(g: np.ndarray) -> np.ndarray:
        dv, dv4 = joined(vd.shape)
        np.matmul(_swap(att), by_head(g), out=dv4)
        return dv

    return _result("attention", out, (q, k, v), (to_q, to_k, to_v))


def layer_norm(a: Operand, gain: Operand, shift: Operand) -> Operand:
    """Normalize the last axis to zero mean / unit variance, then scale by the
    (1, d) row gain and add the (1, d) row shift."""
    ad, gd, sd = _data(a), _data(gain), _data(shift)
    d = ad.shape[-1]
    if gd.shape != (1, d) or sd.shape != (1, d):
        raise ShapeError("layer_norm", ad.shape, gd.shape, sd.shape)
    centered = ad - ad.sum(axis=-1, keepdims=True) / d  # how ndarray.mean computes
    inv = 1.0 / np.sqrt((centered * centered).sum(axis=-1, keepdims=True) / d
                        + LAYER_NORM_EPS)
    y = centered  # centered is not needed past this point
    y *= inv

    def to_a(g: np.ndarray) -> np.ndarray:
        gy = g * gd
        return inv * (gy - gy.mean(axis=-1, keepdims=True)
                      - y * (gy * y).mean(axis=-1, keepdims=True))

    # without a tape no backward reads y, so the output may take its place
    taped = isinstance(a, Tensor) or isinstance(gain, Tensor)
    out = y * gd if taped else np.multiply(y, gd, out=y)
    out += sd
    return _result("layer_norm", out, (a, gain, shift),
                   (to_a, lambda g: (g * y).reshape(-1, d).sum(axis=0, keepdims=True),
                    lambda g: g.reshape(-1, d).sum(axis=0, keepdims=True)))


def gelu(a: Operand) -> Operand:
    """tanh-form GELU with its exact analytic derivative."""
    x = _data(a)
    t = x * x  # tanh(c * (x + 0.044715 * x^3)) in place, in the formula's order
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)

    def fn(g: np.ndarray) -> np.ndarray:
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner)

    # without a tape no backward reads t, so the output may take its place
    y = t + 1.0 if isinstance(a, Tensor) else np.add(t, 1.0, out=t)
    y *= 0.5 * x
    return _result("gelu", y, (a,), (fn,))


def softplus(a: Operand) -> Operand:
    """log(1 + exp(x)), computed stably; derivative is the logistic sigmoid."""
    x = _data(a)
    e = np.exp(-np.abs(x))
    y = np.maximum(x, 0.0) + np.log1p(e)
    return _result("softplus", y, (a,),
                   (lambda g: g * np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)),))


def log(a: Operand) -> Operand:
    x = _data(a)
    if (x <= 0).any():
        raise ComputationError("log: non-positive input")
    return _result("log", np.log(x), (a,), (lambda g: g / x,))


def tsum(a: Operand, axis: int | None = None) -> Operand:
    ad = _data(a)
    shape = ad.shape

    def fn(g: np.ndarray) -> np.ndarray:
        if axis is None:
            return np.full(shape, g)
        return np.broadcast_to(np.expand_dims(g, axis), shape).copy()

    return _result("sum", ad.sum(axis=axis), (a,), (fn,))


def _segment_ids(op: str, starts: np.ndarray, n: int) -> np.ndarray:
    """The segment of each of n entries, given each segment's first entry."""
    sizes = np.concatenate((starts[1:], [n])) - starts
    if starts.ndim != 1 or not starts.size or starts[0] != 0 or sizes.min() <= 0:
        raise UsageError(f"{op}: segment starts must rise strictly from 0 below {n}")
    return np.repeat(np.arange(starts.size), sizes)


def segment_softmax(a: Operand, starts: np.ndarray) -> Operand:
    """Softmax of a 1-D array within each segment of consecutive entries;
    starts holds each segment's first index (np.*.reduceat order)."""
    ad = _data(a)
    seg = _segment_ids("segment_softmax", starts, ad.shape[0])
    e = np.exp(ad - np.maximum.reduceat(ad, starts)[seg])
    y = e / np.add.reduceat(e, starts)[seg]

    def fn(g: np.ndarray) -> np.ndarray:
        return y * (g - np.add.reduceat(g * y, starts)[seg])

    return _result("segment_softmax", y, (a,), (fn,))


def segment_sum(weights: Operand, x: Operand, starts: np.ndarray) -> Operand:
    """Row i of the result is the weights-weighted sum of the rows of x in
    segment i; weights is 1-D, one entry per row of the 2-D x."""
    wd, xd = _data(weights), _data(x)
    if wd.ndim != 1 or xd.ndim != 2 or wd.shape[0] != xd.shape[0]:
        raise ShapeError("segment_sum", wd.shape, xd.shape)
    seg = _segment_ids("segment_sum", starts, xd.shape[0])
    return _result("segment_sum", np.add.reduceat(wd[:, None] * xd, starts, axis=0),
                   (weights, x), (lambda g: (g[seg] * xd).sum(axis=1),
                                  lambda g: wd[:, None] * g[seg]))


# ---------------------------------------------------------------------------
# Backward pass.

def computation_record(root: Tensor) -> list[tuple[str, tuple[int, ...], int]]:
    """The recorded graph below root as (op tag, parent ids, node id) rows in
    topological order (parents always precede their consumers). Mostly a
    debugging and testing aid; backward() walks the same structure."""
    rows = []
    for node in _topo_order(root):
        rows.append((node.op, tuple(id(p) for p in node._parents), id(node)))
    return rows


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Add d loss / d leaf into .grad of every leaf reachable from loss."""
    if not isinstance(loss, Tensor):
        raise UsageError("backward needs a Tensor loss, not a plain array")
    if loss.data.size != 1:
        raise UsageError(f"backward requires a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    # every node reached is an ancestor of loss, so its consumers come
    # first in reverse topological order and leave it a gradient
    for node in reversed(_topo_order(loss)):
        g = grads.pop(id(node))
        if node._parents:
            for parent, fn in zip(node._parents, node._grad_fns):
                contrib = fn(g)
                prev = grads.get(id(parent))
                grads[id(parent)] = contrib if prev is None else prev + contrib
        else:
            node.grad += g


# ---------------------------------------------------------------------------
# Finite-difference gradient checker.

def finite_diff_check(f: Callable[[], Tensor], params: dict[str, Tensor],
                      step: float = 1e-4, max_coords: int = 200,
                      seed: int = 0) -> float:
    """Max relative error between analytic gradients and central differences.

    f must be deterministic (freeze any noise inputs). At most max_coords
    coordinates are probed, chosen by a seeded subsample across all parameters.
    Relative error is |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if step <= 0:
        raise UsageError(f"step must be positive, got {step}")
    for p in params.values():
        p.zero_grad()
    loss = f()
    if loss.data.size != 1:
        raise UsageError("finite_diff_check needs a scalar-valued f")
    backward(loss)
    analytic = {name: p.grad.copy() for name, p in params.items()}

    coords = [(name, i) for name, p in sorted(params.items()) for i in range(p.size)]
    rng = np.random.default_rng(seed)
    if len(coords) > max_coords:
        chosen = [coords[i] for i in rng.choice(len(coords), size=max_coords, replace=False)]
    else:
        chosen = coords

    max_err = 0.0
    for name, i in chosen:
        flat = params[name].data.reshape(-1)
        original = flat[i]
        flat[i] = original + step
        plus = f().item()
        flat[i] = original - step
        minus = f().item()
        flat[i] = original
        if not (math.isfinite(plus) and math.isfinite(minus)):
            raise ComputationError("finite_diff_check: non-finite objective")
        numeric = (plus - minus) / (2.0 * step)
        a = float(analytic[name].reshape(-1)[i])
        err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        max_err = max(max_err, err)
    return max_err


# ---------------------------------------------------------------------------
# Checkpoints: .npz archives of one float64 array per parameter, in sorted
# name order, byte-stable across identical runs.

def save_checkpoint(path: str | Path, params: dict[str, Tensor]) -> None:
    save_arrays(path, {name: p.data for name, p in sorted(params.items())})


def load_checkpoint(path: str | Path) -> dict[str, Tensor]:
    """Read a checkpoint; a malformed file raises a ParseError naming it.
    Names and shapes are checked against a config by RankerModel."""
    params = {}
    for name, arr in load_arrays(path, "checkpoint", "kgrank train").items():
        if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
            raise ParseError(f"{path}: parameter {name!r} is not a float64 array")
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"{path}: parameter {name!r} has non-finite values")
        params[name] = Tensor(arr)
    return params
