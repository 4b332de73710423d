"""Autodiff engine tests: forward semantics, analytic gradients against
central finite differences, gradient routing, and checkpoint stability."""

import numpy as np
import pytest

import kgrank.tensor as tz
from kgrank import oracles
from kgrank.errors import ComputationError, ParseError, ShapeError, UsageError
from kgrank.selftest import (PRIMITIVE_CASES, primitive_case_seed, primitive_leaf,
                             primitive_objective)
from kgrank.tensor import (Tensor, backward, finite_diff_check,
                           load_checkpoint, save_checkpoint)


def leaf(rng, shape, shift=0.0):
    return Tensor(rng.normal(size=shape) + shift)


class TestForwardSemantics:
    def test_softmax_symmetry(self):
        y = tz.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(y.data, [0.5, 0.5], atol=1e-15)

    def test_softmax_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(2)
        y = tz.softmax(Tensor(rng.normal(size=(20, 7)) * 30))
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(y.data > 0)

    def test_layer_norm_constant_vector_is_zero(self):
        y = tz.layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), np.ones((1, 4)), np.zeros((1, 4)))
        np.testing.assert_allclose(y.data, 0.0, atol=1e-9)

    def test_matmul_identity(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 5))
        y = Tensor(np.eye(5)) @ Tensor(a)
        np.testing.assert_array_equal(y.data, a)

    def test_no_broadcasting_between_tensors(self):
        with pytest.raises(ShapeError) as info:
            tz.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3))))
        assert "add" in str(info.value)

    def test_scalar_ops_allowed(self):
        t = Tensor([[1.0, 2.0]])
        np.testing.assert_array_equal((t * 2.0 + 1.0).data, [[3.0, 5.0]])

    def test_non_finite_raises_at_producing_op(self):
        with pytest.raises(ComputationError, match="log"):
            tz.log(Tensor([[1.0, -1.0]]))
        with pytest.raises(ComputationError, match="mul_scalar"), np.errstate(over="ignore"):
            Tensor([[1e308]]) * 10.0
        with pytest.raises(ComputationError):
            Tensor([float("nan")])

    def test_shape_errors_name_the_operation(self):
        with pytest.raises(ShapeError, match="matmul"):
            tz.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeError, match="split"):
            tz.split(Tensor(np.zeros((4, 2))), [1, 2], axis=0)


def attention_per_head(q, k, v, heads, key_bias):
    """The reference: one pair and one head at a time, through softmax_direct."""
    dh = q.shape[2] // heads
    out = np.empty_like(q)
    for b in range(q.shape[0]):
        for h in range(heads):
            c = slice(h * dh, (h + 1) * dh)
            scores = q[b][:, c] @ k[b][:, c].T / np.sqrt(dh) + key_bias[b]
            out[b][:, c] = oracles.softmax_direct(scores) @ v[b][:, c]
    return out


class TestAttention:
    @pytest.mark.parametrize("heads,lq", [(1, 4), (2, 3), (4, 1)])
    def test_matches_per_head_reference(self, heads, lq):
        rng = np.random.default_rng(17 + heads)
        q = rng.normal(size=(3, lq, 8))
        k, v = rng.normal(size=(2, 3, 6, 8))
        key_bias = np.zeros((3, 1, 6))
        key_bias[1, 0, 4:] = key_bias[2, 0, 1] = -np.inf
        want = attention_per_head(q, k, v, heads, key_bias)
        np.testing.assert_allclose(tz.attention(q, k, v, heads, key_bias), want,
                                   rtol=0, atol=1e-12)
        taped = tz.attention(Tensor(q), Tensor(k), Tensor(v), heads, key_bias)
        np.testing.assert_array_equal(taped.data, tz.attention(q, k, v, heads, key_bias))

    def test_padded_keys_get_no_gradient(self):
        """With q a constant, k's rule makes the scores' gradient itself."""
        rng = np.random.default_rng(18)
        k, v = Tensor(rng.normal(size=(1, 3, 4))), Tensor(rng.normal(size=(1, 3, 4)))
        key_bias = np.array([[[0.0, 0.0, -np.inf]]])
        out = tz.attention(rng.normal(size=(1, 2, 4)), k, v, 2, key_bias)
        backward(tz.tsum(out * rng.normal(size=(1, 2, 4))))
        assert not k.grad[0, 2].any() and not v.grad[0, 2].any()
        assert k.grad[0, :2].all() and v.grad[0, :2].all()

    def test_shapes_checked(self):
        q, kv, bias = np.zeros((2, 3, 4)), np.zeros((2, 5, 4)), np.zeros((2, 1, 5))
        for args in [(q, kv, kv, 3, bias), (q, kv, kv, 2, bias[:, :, :4]),
                     (q, kv, kv[:, :4], 2, bias), (q[0], kv[0], kv[0], 2, bias[0])]:
            with pytest.raises(ShapeError, match="attention"):
                tz.attention(*args)


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3))
        backward(tz.tsum(w))
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_elementwise_square_gives_2w(self):
        rng = np.random.default_rng(8)
        w = leaf(rng, (3, 4))
        backward(tz.tsum(w * w))
        np.testing.assert_allclose(w.grad, 2 * w.data, atol=1e-14)

    def test_repeated_backward_accumulates(self):
        w = Tensor([2.0])
        backward(tz.tsum(w))
        backward(tz.tsum(w))
        np.testing.assert_array_equal(w.grad, [2.0])
        w.zero_grad()
        backward(tz.tsum(w))
        np.testing.assert_array_equal(w.grad, [1.0])

    def test_plain_array_loss_rejected(self):
        """A primitive over plain arrays records nothing, so its result has
        no gradient to give."""
        with pytest.raises(UsageError, match="plain array"):
            backward(tz.tsum(np.ones(3)))

    def test_every_tensor_is_differentiable(self):
        """The argument type is the only switch: any Tensor gets a gradient,
        a plain array is a constant of the op and gets none."""
        x, c = Tensor([1.0, 2.0]), np.array([3.0, 4.0])
        y = x * c
        assert y._parents == (x,)
        backward(tz.tsum(y))
        np.testing.assert_array_equal(x.grad, c)

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0])
        with pytest.raises(UsageError, match="scalar"):
            backward(w * 2.0)

    def test_concat_split_grads_route_exactly(self):
        rng = np.random.default_rng(9)
        a = leaf(rng, (2, 3))
        b = leaf(rng, (2, 2))
        joined = tz.concat([a, b], axis=1)
        left, right = tz.split(joined, [3, 2], axis=1)
        backward(tz.tsum(left * 2.0) + tz.tsum(right * 5.0))
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_array_equal(b.grad, np.full((2, 2), 5.0))

    def test_gather_rows_scatter_adds(self):
        w = Tensor(np.zeros((4, 2)))
        out = tz.gather_rows(w, [1, 1, 3])
        backward(tz.tsum(out))
        np.testing.assert_array_equal(w.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_gather_rows_repeat_sums_like_the_row_sum(self):
        """Repeating a (1, d) row through a zero index: backward adds the
        rows in order, bit for bit what g.sum(axis=0) gives."""
        rng = np.random.default_rng(16)
        for n in (1, 2, 3, 8, 65):
            w = Tensor(rng.normal(size=(1, 5)))
            g = rng.normal(size=(n, 5))
            backward(tz.tsum(tz.gather_rows(w, [0] * n) * g))
            np.testing.assert_array_equal(w.grad, g.sum(axis=0, keepdims=True))

    def test_diamond_reuse_accumulates(self):
        w = Tensor([3.0])
        y = w * 2.0
        backward(tz.tsum(y * y))  # d/dw (2w)^2 = 8w
        np.testing.assert_allclose(w.grad, [24.0])

    def test_computation_record_is_topologically_ordered(self):
        from kgrank.tensor import computation_record
        rng = np.random.default_rng(15)
        a = leaf(rng, (2, 2))
        b = leaf(rng, (2, 2))
        loss = tz.tsum(tz.gelu(a @ b) * a)
        rows = computation_record(loss)
        seen = set()
        for op, parents, node_id in rows:
            for p in parents:
                assert p in seen  # parents listed before consumers: acyclic
            seen.add(node_id)
        assert rows[-1][0] == "sum"
        assert len(rows) == len({r[2] for r in rows})  # each node exactly once

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(6, 6))
        results = []
        for _ in range(2):
            w = Tensor(data.copy())
            loss = tz.tsum(tz.softmax(tz.gelu(w @ Tensor(data.T.copy()))))
            backward(loss)
            results.append((loss.item(), w.grad.copy()))
        assert results[0][0] == results[1][0]
        np.testing.assert_array_equal(results[0][1], results[1][1])


class TestPerPrimitiveGradients:
    """Each primitive in isolation passes a strict finite-difference check."""

    @pytest.mark.parametrize("name,fn,shapes,kind", PRIMITIVE_CASES,
                             ids=[c[0] for c in PRIMITIVE_CASES])
    def test_primitive_gradcheck(self, name, fn, shapes, kind):
        f, params = primitive_objective(name, fn, shapes, kind)
        err = finite_diff_check(f, params, step=1e-5, max_coords=60, seed=1)
        assert err < 1e-6, f"{name}: {err}"

    @pytest.mark.parametrize("name,fn,shapes,kind", PRIMITIVE_CASES,
                             ids=[c[0] for c in PRIMITIVE_CASES])
    def test_plain_arrays_give_the_taped_values(self, name, fn, shapes, kind):
        """Without a tape, layer_norm and gelu write their output over their
        own temporaries; every primitive still returns the taped op's values
        bit for bit and writes none of its inputs."""
        rng = np.random.default_rng(primitive_case_seed(name))
        leaves = [primitive_leaf(rng, shape, kind) for shape in shapes]
        arrays = [leaf.data.copy() for leaf in leaves]
        np.testing.assert_array_equal(fn(*arrays), fn(*leaves).data)
        for array, taped in zip(arrays, leaves):
            np.testing.assert_array_equal(array, taped.data)

    def test_composite_gradcheck(self):
        rng = np.random.default_rng(78)
        w1 = leaf(rng, (5, 6))
        w2 = leaf(rng, (6, 3))

        def f():
            h = tz.gelu(Tensor(rng2) @ w1)
            h = tz.layer_norm(h, np.ones((1, 6)), np.zeros((1, 6)))
            return tz.tsum(tz.softmax(h @ w2))

        rng2 = np.random.default_rng(79).normal(size=(4, 5))
        err = finite_diff_check(f, {"w1": w1, "w2": w2}, step=1e-5, max_coords=48)
        assert err < 1e-6


class TestFiniteDiffChecker:
    def test_quadratic_exact(self):
        """f(w) = sum(w^2) at w = 1: analytic and numeric both give 2."""
        w = Tensor(np.ones(5))
        err = finite_diff_check(lambda: tz.tsum(w * w), {"w": w}, step=1e-4)
        assert err <= 1e-10

    def test_rejects_bad_step(self):
        w = Tensor([1.0])
        with pytest.raises(UsageError):
            finite_diff_check(lambda: tz.tsum(w), {"w": w}, step=0.0)

    def test_restores_parameters(self):
        w = Tensor(np.arange(4.0))
        before = w.data.copy()
        finite_diff_check(lambda: tz.tsum(w * w), {"w": w}, step=1e-4)
        np.testing.assert_array_equal(w.data, before)


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        params = {"layer.w": leaf(rng, (3, 2)), "bias": leaf(rng, (1, 2))}
        save_checkpoint(tmp_path / "ckpt.json", params)
        loaded = load_checkpoint(tmp_path / "ckpt.json")
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name].data, params[name].data)

    def test_byte_stable(self, tmp_path, set_clock):
        """Saves an hour apart give equal bytes: no member carries the clock."""
        rng = np.random.default_rng(14)
        params = {"w": leaf(rng, (4, 4))}
        set_clock(1_700_000_000.0)
        save_checkpoint(tmp_path / "a.json", params)
        set_clock(1_700_003_600.0)
        save_checkpoint(tmp_path / "b.json", params)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_version_checked(self, tmp_path):
        with open(tmp_path / "bad.json", "wb") as fh:
            np.savez(fh, format_version=np.array(99), w=np.zeros(2))
        with pytest.raises(ParseError, match="format_version"):
            load_checkpoint(tmp_path / "bad.json")

    def test_format_1_json_asks_for_a_rebuild(self, tmp_path):
        (tmp_path / "old.json").write_text('{"format_version": 1, "params": {}}')
        with pytest.raises(ParseError, match="format-1 JSON.*rebuild it"):
            load_checkpoint(tmp_path / "old.json")
