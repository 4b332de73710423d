"""Minimal reverse-mode autodiff over float64 numpy arrays.

Forward primitives record their inputs and an analytic backward rule; calling
backward() on a scalar loss walks the recorded graph once in reverse
topological order and accumulates gradients on requires_grad leaves. Repeated
backward calls keep accumulating until grads are zeroed.

Randomness is never drawn inside a primitive: noise enters as an explicit
constant input, so any forward pass can be replayed exactly for the
finite-difference checker at the bottom of this module.

Design constraints: float64 everywhere; no broadcasting beyond Python scalars
(use repeat_rows for explicit expansion); non-finite values raise at the
producing operation.

The elementwise kernels (softmax_kernel, layer_norm_kernel, gelu_kernel) are
plain-numpy functions shared by the tape primitives and the model's tape-free
batched scorer, so both compute the same numerics. The per-op finite checks
belong to the tape only; the batched scorer checks its scores instead.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Sequence
from pathlib import Path

import numpy as np

from .errors import ComputationError, ParseError, ShapeError, UsageError

LAYER_NORM_EPS = 1e-5

GradFn = Callable[[np.ndarray], np.ndarray]


class Tensor:
    """An n-dimensional float64 array with an optional gradient tape entry."""

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_grad_fns")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ComputationError("leaf tensor contains non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
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
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    # operator sugar; Tensor op Tensor needs matching shapes, numbers are scalars
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -other if isinstance(other, Tensor) else -float(other))

    def __rsub__(self, other):
        return add(-self, float(other))

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise UsageError("tensor/tensor division is not a primitive; use mul + reciprocal scalars")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)


def _result(op: str, data: np.ndarray, parents: Sequence[Tensor],
            grad_fns: Sequence[GradFn]) -> Tensor:
    if not np.all(np.isfinite(data)):
        raise ComputationError(f"{op}: produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.op = op
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fns = tuple(grad_fns)
    else:
        out.requires_grad = False
        out._parents = ()
        out._grad_fns = ()
    return out


def constant(data) -> Tensor:
    """A no-grad tensor, e.g. externally sampled noise for reparameterization."""
    return Tensor(data, requires_grad=False)


# ---------------------------------------------------------------------------
# Primitives.

def add(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        if a.shape != b.shape:
            raise ShapeError("add", a.shape, b.shape)
        return _result("add", a.data + b.data, (a, b), (lambda g: g, lambda g: g))
    s = float(b)
    return _result("add_scalar", a.data + s, (a,), (lambda g: g,))


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        if a.shape != b.shape:
            raise ShapeError("mul", a.shape, b.shape)
        return _result("mul", a.data * b.data,
                       (a, b), (lambda g: g * b.data, lambda g: g * a.data))
    s = float(b)
    return _result("mul_scalar", a.data * s, (a,), (lambda g: g * s,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    return _result("matmul", a.data @ b.data,
                   (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("transpose", a.shape)
    return _result("transpose", a.data.T.copy(), (a,), (lambda g: g.T,))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != a.size:
        raise ShapeError("reshape", a.shape, tuple(shape))
    old = a.shape
    return _result("reshape", a.data.reshape(shape), (a,), (lambda g: g.reshape(old),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise UsageError("concat of zero tensors")
    ndim = tensors[0].data.ndim
    for t in tensors:
        if t.data.ndim != ndim:
            raise ShapeError("concat", *(t.shape for t in tensors))
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def fn_for(i: int) -> GradFn:
        lo, hi = offsets[i], offsets[i + 1]
        def fn(g: np.ndarray) -> np.ndarray:
            index = [slice(None)] * ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]
        return fn

    return _result("concat", data, tuple(tensors),
                   tuple(fn_for(i) for i in range(len(tensors))))


def split(a: Tensor, sizes: Sequence[int], axis: int = 0) -> list[Tensor]:
    if sum(sizes) != a.shape[axis]:
        raise ShapeError("split", a.shape, (sum(sizes),))
    outs: list[Tensor] = []
    offsets = np.cumsum([0] + list(sizes))
    for i in range(len(sizes)):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        index = [slice(None)] * a.data.ndim
        index[axis] = slice(lo, hi)
        index = tuple(index)

        def fn(g: np.ndarray, index=index) -> np.ndarray:
            out = np.zeros_like(a.data)
            out[index] = g
            return out

        outs.append(_result("split", a.data[index].copy(), (a,), (fn,)))
    return outs


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows along axis 0 (embedding lookup); backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows", a.shape, tuple(idx.shape))
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise UsageError(f"gather_rows: index out of range for shape {a.shape}")

    def fn(g: np.ndarray) -> np.ndarray:
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return out

    return _result("gather_rows", a.data[idx].copy(), (a,), (fn,))


def repeat_rows(a: Tensor, n: int) -> Tensor:
    """Explicitly expand a (1, d) tensor to (n, d); backward sums the rows."""
    if a.data.ndim != 2 or a.shape[0] != 1:
        raise ShapeError("repeat_rows", a.shape)
    return _result("repeat_rows", np.repeat(a.data, n, axis=0),
                   (a,), (lambda g: g.sum(axis=0, keepdims=True),))


def softmax_kernel(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a plain array. Entries of -inf get weight
    0, which is how batched attention masks padded keys."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def layer_norm_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize the last axis of a plain array; returns (y, 1 / std)."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    return centered * inv, inv


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-form GELU of a plain array; returns (y, tanh of the inner term)."""
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis; rows sum to 1 and stay strictly positive."""
    y = softmax_kernel(a.data)

    def fn(g: np.ndarray) -> np.ndarray:
        return y * (g - (g * y).sum(axis=-1, keepdims=True))

    return _result("softmax", y, (a,), (fn,))


def layer_norm(a: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine part)."""
    y, inv = layer_norm_kernel(a.data)

    def fn(g: np.ndarray) -> np.ndarray:
        return inv * (g - g.mean(axis=-1, keepdims=True)
                      - y * (g * y).mean(axis=-1, keepdims=True))

    return _result("layer_norm", y, (a,), (fn,))


def gelu(a: Tensor) -> Tensor:
    """tanh-form GELU with its exact analytic derivative."""
    x = a.data
    y, t = gelu_kernel(x)

    def fn(g: np.ndarray) -> np.ndarray:
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner)

    return _result("gelu", y, (a,), (fn,))


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably; derivative is the logistic sigmoid."""
    x = a.data
    y = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    e = np.exp(-np.abs(x))
    sig = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _result("softplus", y, (a,), (lambda g: g * sig,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ComputationError("log: non-positive input")
    return _result("log", np.log(a.data), (a,), (lambda g: g / a.data,))


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    shape = a.shape

    def fn(g: np.ndarray) -> np.ndarray:
        if axis is None:
            return np.full(shape, g)
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, shape).copy()

    return _result("sum", a.data.sum(axis=axis, keepdims=keepdims), (a,), (fn,))


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
    """Populate .grad on every requires_grad leaf reachable from loss."""
    if loss.data.size != 1:
        raise UsageError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss._parents:
        if not loss.requires_grad:
            raise UsageError("backward through a tensor that was not produced "
                             "by recorded primitives")
        loss.grad = (loss.grad if loss.grad is not None else np.zeros_like(loss.data)) \
            + np.ones_like(loss.data)
        return
    order = _topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._parents:
            for parent, fn in zip(node._parents, node._grad_fns):
                if not parent.requires_grad:
                    continue
                contrib = fn(g)
                prev = grads.get(id(parent))
                grads[id(parent)] = contrib if prev is None else prev + contrib
        elif node.requires_grad:
            node.grad = g.copy() if node.grad is None else node.grad + g


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
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

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
# Checkpoints: flat, versioned JSON maps, byte-stable across identical runs.

def save_checkpoint(path: str | Path, params: dict[str, Tensor]) -> None:
    payload = {
        "format_version": 1,
        "params": {name: {"shape": list(p.shape), "values": p.data.reshape(-1).tolist()}
                   for name, p in sorted(params.items())},
    }
    from .fileio import atomic_write
    atomic_write(path, json.dumps(payload, sort_keys=True, separators=(",", ":")))


def load_checkpoint(path: str | Path) -> dict[str, Tensor]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format_version") != 1:
        raise ParseError(f"{path}: unsupported checkpoint format_version")
    params = {}
    for name, entry in payload["params"].items():
        arr = np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
        params[name] = Tensor(arr, requires_grad=True)
    return params
