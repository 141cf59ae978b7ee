"""Unit tests for the reverse-mode differentiation engine."""

from __future__ import annotations

import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from seqcls import autodiff as ad
from seqcls.autodiff import BnState, Value, backward, fd_check, rng, zero_grads
from seqcls.errors import ConfigError, DataError, NumericError, ShapeError, UsageError
from seqcls.satt import _frame_order


def graph_nodes(root):
    """Every node reachable from root, constants included, once each."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def leaf(gen, *shape, low=0.1, high=1.0):
    """Random requires_grad leaf bounded away from zero (clear of relu kinks)."""
    data = gen.uniform(low, high, size=shape) * gen.choice([-1.0, 1.0], size=shape)
    return Value(data, requires_grad=True)


class TestValue:
    def test_wraps_float64_with_zeroed_grad(self):
        """float64 data; a trainable leaf gets a zero gradient, a constant none."""
        v = Value([1, 2, 3])
        assert v.data.dtype == np.float64
        assert v.grad is None
        assert not v.requires_grad
        w = Value([1, 2, 3], requires_grad=True)
        assert w.grad.dtype == np.float64
        assert_array_equal(w.grad, np.zeros(3))

    def test_rejects_rank_above_three(self):
        with pytest.raises(ShapeError):
            Value(np.zeros((2, 2, 2, 2)))

    def test_rejects_empty_extents(self):
        with pytest.raises(ShapeError):
            Value(np.zeros((0, 3)))


class TestBackward:
    def test_chain_rule_through_product(self):
        """d/dx sum(x*x) = 2x."""
        gen = np.random.default_rng(42)
        x = Value(gen.normal(size=5), requires_grad=True)
        backward(ad.sum_all(ad.mul(x, x)))
        assert_allclose(x.grad, 2.0 * x.data)

    def test_shared_node_sums_both_paths(self):
        """A node consumed twice receives the sum of both path gradients."""
        x = Value(3.0, requires_grad=True)
        backward(ad.add(x, x))
        assert_allclose(x.grad, 2.0)

    def test_gradients_accumulate_across_calls(self):
        """backward adds into .grad; zero_grads resets it."""
        x = Value(np.ones(3), requires_grad=True)
        loss = lambda: ad.sum_all(ad.mul(x, x))
        backward(loss())
        backward(loss())
        assert_allclose(x.grad, 4.0 * np.ones(3))
        zero_grads([x])
        assert_array_equal(x.grad, np.zeros(3))

    def test_zero_grads_accepts_any_iterable_of_values(self):
        x, w = Value(1.0, requires_grad=True), Value(np.ones((2, 3)), requires_grad=True)
        named = [("x", x), ("w", w)]
        for _, v in named:
            v.grad[...] = 5.0
        zero_grads(v for _, v in named)
        assert_array_equal(x.grad, 0.0)
        assert_array_equal(w.grad, np.zeros((2, 3)))

    def test_pack_makes_leaves_views_of_one_flat_leaf(self):
        """Values and gradients carry over; backward and zero_grads reach the flat leaf."""
        a, w = Value(2.0, requires_grad=True), Value(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w.grad[...] = 1.0
        flat = ad.pack([a, w])
        assert a.data.shape == a.grad.shape == () and w.data.shape == w.grad.shape == (2, 3)
        assert_array_equal(flat.data, [2.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        assert_array_equal(flat.grad, [0.0] + [1.0] * 6)
        backward(ad.sum_all(ad.mul(w, a)))
        assert_array_equal(flat.grad, [15.0] + [3.0] * 6)
        zero_grads([flat])
        assert_array_equal(a.grad, 0.0)
        flat.data[0] = -1.0
        assert a.data == -1.0

    def test_pack_rejects_constants_repeats_and_nothing(self):
        x = Value(np.ones(2), requires_grad=True)
        for values in ([x, Value(1.0)], [x, x], []):
            with pytest.raises(UsageError):
                ad.pack(values)

    def test_constant_inputs_stay_untouched(self):
        """requires_grad=False leaves collect no gradient."""
        x = Value(np.ones(3), requires_grad=True)
        c = Value(2.0 * np.ones(3))
        backward(ad.sum_all(ad.mul(x, c)))
        assert_allclose(x.grad, c.data)
        assert c.grad is None

    def test_non_scalar_root_rejected(self):
        x = Value(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError):
            backward(ad.mul(x, x))

    def test_graph_without_trainable_leaf_is_a_no_op(self):
        """A root no trainable leaf reaches returns at once; no gradient moves."""
        w = Value(np.ones(3), requires_grad=True)
        w.grad[...] = 3.0
        c = Value(np.arange(3.0))
        assert backward(ad.sum_all(ad.mul(c, c))) is None
        assert_array_equal(w.grad, 3.0)
        assert c.grad is None

    def test_forward_only_graph_allocates_no_intermediate_grads(self):
        """Only requires_grad leaves own a buffer."""
        gen = np.random.default_rng(42)
        w = Value(gen.normal(size=(2, 3)), requires_grad=True)
        x = Value(gen.normal(size=(4, 5, 3)))
        out = ad.l2_normalize(ad.weighted_row_sum(ad.softmax_sharp(ad.row_dot(x, w), 1.0), x))
        nodes = graph_nodes(out)
        assert len(nodes) == 6
        for node in nodes:
            assert (node.grad is not None) == (node is w), node

    def test_only_trainable_leaves_hold_gradients(self):
        """backward fills the buffers of trainable leaves and pack views, nothing else."""
        gen = np.random.default_rng(42)
        w = Value(gen.normal(size=(2, 3)), requires_grad=True)
        a = Value(gen.normal(size=(2, 1)), requires_grad=True)
        flat = ad.pack([w, a])
        x = Value(gen.normal(size=(4, 5, 3)))
        logits = ad.row_dot(x, ad.mul(w, a))
        pooled = ad.weighted_row_sum(ad.softmax_sharp(logits, 1.0), ad.relu(x))
        loss = ad.sum_all(ad.mul(ad.l2_normalize(pooled), Value(gen.normal(size=(4, 2, 3)))))
        backward(loss)
        nodes = graph_nodes(loss)
        assert len(nodes) == 12  # relu(x) is an op node on constants
        holders = [n for n in nodes if n.grad is not None]
        assert {id(n) for n in holders} == {id(w), id(a)}
        assert np.abs(flat.grad).min() > 0.0
        assert_array_equal(flat.grad, np.concatenate([w.grad.reshape(-1), a.grad.reshape(-1)]))

    def test_broadcast_bias_gradient_sums_rows(self):
        """Gradient of a broadcast addend reduces over the broadcast axis."""
        x = Value(np.ones((4, 3)), requires_grad=True)
        b = Value(np.zeros(3), requires_grad=True)
        backward(ad.sum_all(ad.add(x, b)))
        assert_allclose(b.grad, 4.0 * np.ones(3))


class TestStructuralOps:
    def test_reshape_round_trip(self):
        gen = np.random.default_rng(42)
        x = gen.normal(size=(3, 4))
        assert_array_equal(ad.reshape(Value(x), (4, 3)).data, x.reshape(4, 3))
        with pytest.raises(ShapeError):
            ad.reshape(Value(x), (5, 3))

    def test_concat_matches_numpy_and_splits_gradient(self):
        gen = np.random.default_rng(42)
        a = Value(gen.normal(size=(2, 3)), requires_grad=True)
        b = Value(gen.normal(size=(1, 3)), requires_grad=True)
        out = ad.concat([a, b], axis=0)
        assert_array_equal(out.data, np.concatenate([a.data, b.data]))
        backward(ad.sum_all(ad.mul(out, out)))
        assert_allclose(a.grad, 2.0 * a.data)
        assert_allclose(b.grad, 2.0 * b.data)

    def test_concat_hands_views_of_its_flow_to_a_leaf_taken_twice(self):
        """Both pieces alias one flow; the leaf gets their sum."""
        gen = np.random.default_rng(42)
        x = Value(gen.normal(size=(2, 3)), requires_grad=True)
        c = Value(gen.normal(size=(2, 6)))
        backward(ad.sum_all(ad.mul(ad.concat([x, x], axis=1), c)))
        assert_array_equal(x.grad, c.data[:, :3] + c.data[:, 3:])

    def test_concat_rejects_off_axis_mismatch(self):
        with pytest.raises(ShapeError):
            ad.concat([Value(np.ones((2, 3))), Value(np.ones((2, 4)))], axis=0)

    def test_take_rows_reorders_and_routes_gradient_back(self):
        gen = np.random.default_rng(42)
        x = Value(gen.normal(size=(4, 3)), requires_grad=True)
        order = [2, 0, 3, 1]
        out = ad.take_rows(x, order)
        assert_array_equal(out.data, x.data[order])
        c = Value(gen.normal(size=(4, 3)))
        backward(ad.sum_all(ad.mul(out, c)))
        assert_array_equal(x.grad[order], c.data)
        with pytest.raises(ShapeError):
            ad.take_rows(x, [4])


class TestLinearOps:
    def test_matmul_matches_numpy(self):
        gen = np.random.default_rng(42)
        a, b = gen.normal(size=(3, 4)), gen.normal(size=(4, 2))
        assert_allclose(ad.matmul(Value(a), Value(b)).data, a @ b)
        with pytest.raises(ShapeError):
            ad.matmul(Value(a), Value(a))

    def test_row_dot_matches_matvec(self):
        gen = np.random.default_rng(42)
        x, w = gen.normal(size=(2, 5, 3)), gen.normal(size=(4, 3))
        out = ad.row_dot(Value(x), Value(w)).data
        for b in range(2):
            for h in range(4):
                assert_allclose(out[b, h], x[b] @ w[h])
        # one sequence against one vector is the B = H = 1 case
        assert_allclose(ad.row_dot(Value(x[0]), Value(w[0])).data, x[0] @ w[0])

    def test_weighted_row_sum_matches_matvec(self):
        gen = np.random.default_rng(42)
        w, x = gen.normal(size=(2, 4, 5)), gen.normal(size=(2, 5, 3))
        out = ad.weighted_row_sum(Value(w), Value(x)).data
        for b in range(2):
            for h in range(4):
                assert_allclose(out[b, h], w[b, h] @ x[b], rtol=1e-12)

    def test_weighted_row_sum_permutation_invariant_bitwise(self):
        """Frames and weights reordered together, then put in canonical frame order, keep every bit.

        The op is a plain per-video matmul; satt gets its invariance from
        sorting the frames where they enter, which this replays.
        """
        gen = np.random.default_rng(42)
        w, x = gen.normal(size=(1, 2, 7)), gen.normal(size=(1, 7, 4))

        def canonical(w, x):
            order = _frame_order(x)[0]
            return ad.weighted_row_sum(Value(w[:, :, order]), Value(x[:, order])).data

        base = canonical(w, x)
        order = _frame_order(x)[0]
        assert_array_equal(base[0], np.matmul(w[0][:, order], x[0, order]))
        for _ in range(20):
            perm = gen.permutation(7)
            assert_array_equal(canonical(w[:, :, perm], x[:, perm]), base)
            # in any other order the sum only rounds differently
            assert_allclose(ad.weighted_row_sum(Value(w[:, :, perm]), Value(x[:, perm])).data,
                            base, rtol=1e-13)


class TestBatchedAttentionOps:
    """Rank-3 attention ops reproduce a per-video NumPy oracle bitwise."""

    def test_row_dot_batched_matches_per_row_bitwise(self):
        gen = np.random.default_rng(42)
        x, w = gen.normal(size=(3, 7, 17)), gen.normal(size=(4, 17))
        out = ad.row_dot(Value(x), Value(w)).data
        assert out.shape == (3, 4, 7)
        for b in range(3):
            assert_array_equal(out[b], np.matmul(w, x[b].T))

    def test_weighted_row_sum_batched_matches_per_row_bitwise(self):
        gen = np.random.default_rng(42)
        wts, x = gen.normal(size=(3, 4, 7)), gen.normal(size=(3, 7, 5))
        out = ad.weighted_row_sum(Value(wts), Value(x)).data
        assert out.shape == (3, 4, 5)
        for b in range(3):
            assert_array_equal(out[b], np.matmul(wts[b], x[b]))

    def test_last_axis_ops_match_per_row_bitwise(self):
        gen = np.random.default_rng(42)
        s = gen.normal(size=(3, 4, 9))
        soft = ad.softmax_sharp(Value(s), 1.7).data
        norm = ad.l2_normalize(Value(s)).data
        for b in range(3):
            for h in range(4):
                assert_array_equal(soft[b, h], ad.softmax_sharp(Value(s[b, h]), 1.7).data)
                assert_array_equal(norm[b, h], ad.l2_normalize(Value(s[b, h])).data)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError):
            ad.row_dot(Value(np.ones((2, 3, 4))), Value(np.ones(4)))
        with pytest.raises(ShapeError):
            ad.row_dot(Value(np.ones((2, 3, 4))), Value(np.ones((2, 5))))
        with pytest.raises(ShapeError):
            ad.weighted_row_sum(Value(np.ones((2, 2, 3))), Value(np.ones((2, 4, 5))))
        with pytest.raises(ShapeError):
            ad.weighted_row_sum(Value(np.ones((3, 2, 3))), Value(np.ones((2, 3, 5))))
        with pytest.raises(ShapeError):  # one unbatched sequence is a batch of one
            ad.weighted_row_sum(Value(np.ones(3)), Value(np.ones((3, 5))))
        with pytest.raises(ShapeError):
            ad.l2_normalize(Value(np.float64(2.0)))

    def test_rank3_gradients_match_finite_differences(self):
        """Multi-row gradients of every batched attention op, composed like a satt group."""
        gen = rng(42)
        x = leaf(gen, 2, 4, 3)
        w = leaf(gen, 3, 3)
        cot = Value(gen.normal(size=(2, 3, 3)))

        def f():
            weights = ad.softmax_sharp(ad.row_dot(x, w), 1.3)
            return ad.sum_all(ad.mul(ad.l2_normalize(ad.weighted_row_sum(weights, x)), cot))

        report = fd_check(f, [("x", x), ("w", w)])
        assert report.passed, report.summary()


class TestSoftmaxSharp:
    def test_matches_direct_formula(self):
        gen = np.random.default_rng(42)
        s = gen.normal(size=6)
        for alpha in (0.5, 1.0, 3.0):
            e = np.exp(alpha * (s - s.max()))
            assert_allclose(ad.softmax_sharp(Value(s), alpha).data, e / e.sum(), rtol=1e-14)

    def test_permutation_equivariant_bitwise(self):
        """Scores of frames in canonical order give the same weights from any input order.

        Any other order permutes the weights to within rounding: the
        normalizer is a plain sum.
        """
        gen = np.random.default_rng(42)
        s = gen.normal(size=9)
        base = ad.softmax_sharp(Value(s), 1.0).data

        def canonical(v):
            return v[_frame_order(v[None, :, None])[0]]

        sorted_base = ad.softmax_sharp(Value(canonical(s)), 1.0).data
        e = np.exp(canonical(s) - canonical(s).max())
        assert_array_equal(sorted_base, e / np.sum(e))
        for _ in range(20):
            perm = gen.permutation(9)
            assert_array_equal(ad.softmax_sharp(Value(canonical(s[perm])), 1.0).data, sorted_base)
            assert_allclose(ad.softmax_sharp(Value(s[perm]), 1.0).data, base[perm], rtol=1e-14)

    def test_sharper_alpha_concentrates_mass(self):
        s = np.array([0.1, 0.9, 0.4])
        peaks = [ad.softmax_sharp(Value(s), a).data.max() for a in (1.0, 5.0, 25.0)]
        assert peaks[0] < peaks[1] < peaks[2]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            ad.softmax_sharp(Value(np.ones(3)), 0.0)
        with pytest.raises(NumericError):
            ad.softmax_sharp(Value(np.array([1.0, np.inf])), 1.0)
        with pytest.raises(ShapeError):
            ad.softmax_sharp(Value(np.float64(1.0)), 1.0)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_always_a_distribution(self, seed):
        """Output is non-negative and sums to one for any finite scores."""
        gen = np.random.default_rng(seed)
        s = gen.normal(scale=10.0, size=int(gen.integers(1, 12)))
        y = ad.softmax_sharp(Value(s), float(gen.uniform(0.1, 8.0))).data
        assert y.min() >= 0.0
        assert abs(y.sum() - 1.0) <= 1e-12


class TestL2Normalize:
    def test_unit_norm_output(self):
        gen = np.random.default_rng(42)
        for _ in range(50):
            y = ad.l2_normalize(Value(gen.normal(size=8))).data
            assert abs(np.linalg.norm(y) - 1.0) <= 1e-12

    def test_zero_vector_maps_to_zero(self):
        """The denominator clamp turns the zero vector into zeros, not NaN."""
        y = ad.l2_normalize(Value(np.zeros(4))).data
        assert_array_equal(y, np.zeros(4))

    def test_gradient_is_tangent_to_the_sphere(self):
        """Analytic gradient of any linear functional is orthogonal to the output."""
        gen = np.random.default_rng(42)
        v = Value(gen.normal(size=6), requires_grad=True)
        c = Value(gen.normal(size=6))
        y = ad.l2_normalize(v)
        backward(ad.sum_all(ad.mul(y, c)))
        assert abs(float(np.dot(v.grad, y.data))) <= 1e-12


def pool_oracle(x: np.ndarray, n: int) -> np.ndarray:
    """Brute-force adaptive max pooling over [floor(iT/n), floor((i+1)T/n))."""
    t = x.shape[0]
    return np.stack([x[i * t // n:(i + 1) * t // n].max(axis=0) for i in range(n)])


class TestTemporalOps:
    def test_zero_pad_extends_with_zero_frames(self):
        gen = np.random.default_rng(42)
        x = gen.normal(size=(3, 2))
        out = ad.zero_pad_time(Value(x), 5).data
        assert_array_equal(out[:3], x)
        assert_array_equal(out[3:], np.zeros((2, 2)))

    def test_zero_pad_truncates_the_tail(self):
        gen = np.random.default_rng(42)
        x = gen.normal(size=(5, 2))
        assert_array_equal(ad.zero_pad_time(Value(x), 3).data, x[:3])

    def test_adaptive_pool_matches_brute_force(self):
        gen = np.random.default_rng(42)
        for _ in range(50):
            t = int(gen.integers(1, 13))
            n = int(gen.integers(1, t + 1))
            x = gen.normal(size=(t, int(gen.integers(1, 4))))
            assert_array_equal(ad.adaptive_max_pool1d(Value(x), n).data, pool_oracle(x, n))

    def test_adaptive_pool_identity_when_segments_equal_frames(self):
        gen = np.random.default_rng(42)
        x = gen.normal(size=(6, 3))
        assert_array_equal(ad.adaptive_max_pool1d(Value(x), 6).data, x)

    def test_adaptive_pool_rejects_bad_segment_count(self):
        with pytest.raises(ConfigError):
            ad.adaptive_max_pool1d(Value(np.ones((4, 2))), 5)

    def test_pool_gradient_goes_to_earliest_tied_max(self):
        """Ties route the whole segment gradient to the first maximal frame."""
        x = Value(np.array([[1.0], [1.0], [0.5]]), requires_grad=True)
        backward(ad.sum_all(ad.adaptive_max_pool1d(x, 1)))
        assert_array_equal(x.grad, np.array([[1.0], [0.0], [0.0]]))

    def test_global_max_pool_matches_numpy(self):
        gen = np.random.default_rng(42)
        x = gen.normal(size=(7, 3))
        assert_array_equal(ad.global_max_pool_time(Value(x)).data, x.max(axis=0))

    def test_batched_temporal_ops_match_per_sample_bitwise(self):
        """Rank-3 inputs reproduce each sample's rank-2 result exactly."""
        gen = np.random.default_rng(42)
        xs = gen.normal(size=(4, 6, 3))
        kernels = gen.normal(size=(3, 3))
        w, b = gen.normal(size=(3, 5)), gen.normal(size=5)
        batched = {
            "pad": ad.zero_pad_time(Value(xs), 9).data,
            "pool": ad.adaptive_max_pool1d(Value(xs), 3).data,
            "gmax": ad.global_max_pool_time(Value(xs)).data,
            "dw": ad.depthwise_conv1d(Value(xs), Value(kernels)).data,
            "pw": ad.pointwise_conv1d(Value(xs), Value(w), Value(b)).data,
        }
        for i, x in enumerate(xs):
            assert_array_equal(batched["pad"][i], ad.zero_pad_time(Value(x), 9).data)
            assert_array_equal(batched["pool"][i], ad.adaptive_max_pool1d(Value(x), 3).data)
            assert_array_equal(batched["gmax"][i], ad.global_max_pool_time(Value(x)).data)
            assert_array_equal(batched["dw"][i], ad.depthwise_conv1d(Value(x), Value(kernels)).data)
            assert_array_equal(batched["pw"][i], ad.pointwise_conv1d(Value(x), Value(w), Value(b)).data)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_adaptive_pool_property(self, seed):
        """Pooling equals the brute-force oracle for arbitrary (T, n, C)."""
        gen = np.random.default_rng(seed)
        t = int(gen.integers(1, 16))
        n = int(gen.integers(1, t + 1))
        x = gen.normal(size=(t, int(gen.integers(1, 5))))
        assert_array_equal(ad.adaptive_max_pool1d(Value(x), n).data, pool_oracle(x, n))


def depthwise_oracle(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Direct per-channel cross-correlation with zero padding."""
    t, c = x.shape
    k = kernels.shape[0]
    p = (k - 1) // 2
    out = np.zeros((t, c))
    for ti in range(t):
        for j in range(k):
            src = ti + j - p
            if 0 <= src < t:
                out[ti] += kernels[j] * x[src]
    return out


class TestConvolutions:
    def test_depthwise_matches_loop_oracle(self):
        gen = np.random.default_rng(42)
        for k in (1, 3, 5):
            x = gen.normal(size=(8, 3))
            kernels = gen.normal(size=(k, 3))
            assert_allclose(ad.depthwise_conv1d(Value(x), Value(kernels)).data,
                            depthwise_oracle(x, kernels), rtol=1e-13, atol=1e-13)

    def test_depthwise_matches_numpy_convolve(self):
        """Each channel equals numpy's flipped-kernel same-mode convolution."""
        gen = np.random.default_rng(42)
        x, kernels = gen.normal(size=(10, 2)), gen.normal(size=(5, 2))
        out = ad.depthwise_conv1d(Value(x), Value(kernels)).data
        for c in range(2):
            assert_allclose(out[:, c], np.convolve(x[:, c], kernels[::-1, c], mode="same"),
                            rtol=1e-12, atol=1e-12)

    def test_depthwise_rejects_even_kernel(self):
        with pytest.raises(ConfigError):
            ad.depthwise_conv1d(Value(np.ones((4, 2))), Value(np.ones((2, 2))))

    def test_depthwise_channels_never_mix(self):
        """Perturbing one input channel leaves every other output channel fixed."""
        gen = np.random.default_rng(42)
        x, kernels = gen.normal(size=(6, 3)), gen.normal(size=(3, 3))
        base = ad.depthwise_conv1d(Value(x), Value(kernels)).data
        bumped = x.copy()
        bumped[:, 1] += 1.0
        out = ad.depthwise_conv1d(Value(bumped), Value(kernels)).data
        assert_array_equal(out[:, [0, 2]], base[:, [0, 2]])

    def test_pointwise_is_per_timestep_affine(self):
        gen = np.random.default_rng(42)
        x, w, b = gen.normal(size=(6, 3)), gen.normal(size=(3, 4)), gen.normal(size=4)
        assert_allclose(ad.pointwise_conv1d(Value(x), Value(w), Value(b)).data, x @ w + b)

    def test_pointwise_takes_a_batch_of_rows(self):
        """The classifier's form: rows [B x R]; one row alone (rank 1) is refused."""
        gen = np.random.default_rng(42)
        w, b = gen.normal(size=(4, 2)), gen.normal(size=2)
        x = gen.normal(size=(3, 4))
        assert_allclose(ad.pointwise_conv1d(Value(x), Value(w), Value(b)).data, x @ w + b)
        with pytest.raises(ShapeError):
            ad.pointwise_conv1d(Value(x[0]), Value(w), Value(b))


class TestBatchNorm:
    def test_train_forward_standardizes(self):
        """Train mode matches the biased-variance normalization formula."""
        gen = np.random.default_rng(42)
        x = gen.normal(loc=2.0, scale=3.0, size=(20, 4))
        state = BnState.fresh(4)
        out = ad.batch_norm(Value(x), Value(np.ones(4)), Value(np.zeros(4)), state).data
        expected = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + 1e-5)
        assert_allclose(out, expected, rtol=1e-12)

    def test_train_updates_running_statistics(self):
        """Fresh (0, 1) state folds in the batch stats with 0.9 retention."""
        gen = np.random.default_rng(42)
        x = gen.normal(size=(10, 3))
        state = BnState.fresh(3)
        ad.batch_norm(Value(x), Value(np.ones(3)), Value(np.zeros(3)), state)
        assert_allclose(state.mean, 0.1 * x.mean(axis=0), rtol=1e-12)
        assert_allclose(state.var, 0.9 + 0.1 * x.var(axis=0), rtol=1e-12)

    def test_infer_uses_state_and_leaves_it_untouched(self):
        gen = np.random.default_rng(42)
        x = gen.normal(size=(5, 3))
        state = BnState(mean=np.arange(3.0), var=np.full(3, 2.0))
        before = (state.mean.copy(), state.var.copy())
        out = ad.batch_norm(Value(x), Value(np.ones(3)), Value(np.zeros(3)), state,
                            mode="infer").data
        assert_allclose(out, (x - before[0]) / np.sqrt(before[1] + 1e-5), rtol=1e-12)
        assert_array_equal(state.mean, before[0])
        assert_array_equal(state.var, before[1])

    def test_rank3_input_pools_batch_and_time(self):
        """[B x T x C] normalizes over B*T positions, same as the flattened view."""
        gen = np.random.default_rng(42)
        x = gen.normal(size=(4, 5, 3))
        out3 = ad.batch_norm(Value(x), Value(np.ones(3)), Value(np.zeros(3)),
                             BnState.fresh(3)).data
        out2 = ad.batch_norm(Value(x.reshape(-1, 3)), Value(np.ones(3)), Value(np.zeros(3)),
                             BnState.fresh(3)).data
        assert_array_equal(out3.reshape(-1, 3), out2)

    def test_train_rejects_single_position(self):
        with pytest.raises(ConfigError):
            ad.batch_norm(Value(np.ones((1, 3))), Value(np.ones(3)), Value(np.zeros(3)),
                          BnState.fresh(3))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            ad.batch_norm(Value(np.ones((4, 3))), Value(np.ones(3)), Value(np.zeros(3)),
                          BnState.fresh(3), mode="test")


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        """Equal logits make the loss exactly ln(num_classes)."""
        loss = ad.cross_entropy(Value(np.zeros((4, 10))), [0, 3, 5, 9])
        assert_allclose(float(loss.data), np.log(10.0), rtol=1e-15)

    def test_matches_direct_formula(self):
        gen = np.random.default_rng(42)
        z = gen.normal(size=(3, 5))
        labels = [1, 4, 0]
        expected = np.mean([np.log(np.exp(z[i]).sum()) - z[i, labels[i]] for i in range(3)])
        assert_allclose(float(ad.cross_entropy(Value(z), labels).data), expected, rtol=1e-12)

    def test_gradient_is_softmax_minus_onehot(self):
        gen = np.random.default_rng(42)
        z = Value(gen.normal(size=(2, 4)), requires_grad=True)
        labels = [2, 0]
        backward(ad.cross_entropy(z, labels))
        p = np.exp(z.data) / np.exp(z.data).sum(axis=1, keepdims=True)
        p[np.arange(2), labels] -= 1.0
        assert_allclose(z.grad, p / 2.0, rtol=1e-12)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(DataError):
            ad.cross_entropy(Value(np.zeros((2, 3))), [0, 3])


def _ones(*shape):
    return Value(np.ones(shape))


class TestGuards:
    @pytest.mark.parametrize("call, error", [
        (lambda: ad.concat([]), ConfigError),
        (lambda: ad.take_rows(Value(np.float64(1.0)), [0]), ShapeError),
        (lambda: ad.take_rows(_ones(3, 2), []), ShapeError),
        (lambda: ad.matmul(_ones(3), _ones(3, 2)), ShapeError),
        (lambda: ad.zero_pad_time(_ones(3), 4), ShapeError),
        (lambda: ad.zero_pad_time(_ones(3, 2), 0), ConfigError),
        (lambda: ad.adaptive_max_pool1d(_ones(3), 1), ShapeError),
        (lambda: ad.global_max_pool_time(_ones(3)), ShapeError),
        (lambda: ad.depthwise_conv1d(_ones(3), _ones(3, 1)), ShapeError),
        (lambda: ad.depthwise_conv1d(_ones(5, 2), _ones(3, 3)), ShapeError),
        (lambda: ad.pointwise_conv1d(_ones(2, 3), _ones(3, 4), _ones(1, 4)), ShapeError),
        (lambda: ad.pointwise_conv1d(_ones(2, 3), _ones(3, 4), _ones(5)), ShapeError),
        (lambda: ad.batch_norm(_ones(4), _ones(4), _ones(4), BnState.fresh(4)), ShapeError),
        (lambda: ad.batch_norm(_ones(5, 3), _ones(3), _ones(4), BnState.fresh(3)), ShapeError),
        (lambda: ad.cross_entropy(_ones(3), [0]), ShapeError),
        (lambda: ad.cross_entropy(_ones(2, 3), [0, 1, 2]), ShapeError),
    ], ids=["concat-nothing", "take_rows-rank0", "take_rows-empty-index", "matmul-rank1",
            "zero_pad_time-rank1", "zero_pad_time-length0", "adaptive_max_pool1d-rank1",
            "global_max_pool_time-rank1", "depthwise_conv1d-rank1", "depthwise_conv1d-channels",
            "pointwise_conv1d-bias-rank2", "pointwise_conv1d-shapes", "batch_norm-rank1",
            "batch_norm-beta-shape", "cross_entropy-rank1", "cross_entropy-label-shape"])
    def test_bad_input_raises(self, call, error):
        with pytest.raises(error):
            call()


class TestFdCheck:
    def test_passes_on_a_smooth_composite(self):
        gen = rng(42)
        x = leaf(gen, 4, 3)
        w = leaf(gen, 3)
        cot = Value(gen.normal(size=4))
        f = lambda: ad.sum_all(ad.mul(ad.softmax_sharp(ad.row_dot(x, w), 2.0), cot))
        report = fd_check(f, [("x", x), ("w", w)])
        assert report.passed
        assert report.max_rel_error < 1e-4
        assert "PASS" in report.summary()

    def test_fails_across_a_relu_kink(self):
        """Central differences straddling a kink disagree with the analytic slope."""
        x = Value(np.array([2e-4]), requires_grad=True)
        report = fd_check(lambda: ad.sum_all(ad.relu(x)), [("x", x)], step=1e-3)
        assert not report.passed

    def test_kink_crossing_marks_the_step_unfit(self):
        """A step over a relu kink is the step's fault, so the sample is unfit."""
        x = Value(np.array([2e-4, 0.5]), requires_grad=True)
        report = fd_check(lambda: ad.sum_all(ad.relu(x)), [("x", x)], step=1e-3)
        assert not report.passed
        assert report.step_unfit

    def test_truncation_error_marks_the_step_unfit(self):
        """Strong curvature defeats central differences at this step, not the gradient."""
        x = Value(np.array([0.01]), requires_grad=True)
        report = fd_check(lambda: ad.sum_all(ad.mul(ad.mul(x, x), x)), [("x", x)], step=1e-3)
        assert not report.passed
        assert report.step_unfit

    def test_wrong_gradient_is_not_blamed_on_the_step(self):
        """A backward rule that is off by 1% fails, curvature and kinks or not."""
        def bad_cube(v):
            return ad._node(v.data ** 3, (v,), lambda g: (g * 3.03 * v.data ** 2,), "bad_cube")

        for start in ([0.01], [0.7, -1.3]):
            x = Value(np.array(start), requires_grad=True)
            report = fd_check(lambda: ad.sum_all(bad_cube(x)), [("x", x)])
            assert not report.passed
            assert not report.step_unfit

    def test_non_finite_gradient_is_not_blamed_on_the_step(self):
        """NaN fails every comparison, so a non-finite slope must fail the check itself."""
        def nan_grad_square(v):  # analytic slope NaN
            return ad._node(v.data ** 2, (v,), lambda g: (g * np.nan,), "nan_grad_square")

        def overflow_off_start(v):  # numeric slope inf - inf
            out = np.where(np.isin(v.data, (0.01, 0.7, -1.3)), 1.0, np.inf)
            return ad._node(out, (v,), lambda g: (np.zeros_like(g),), "overflow_off_start")

        for op in (nan_grad_square, overflow_off_start):
            for start in ([0.01], [0.7, -1.3]):
                x = Value(np.array(start), requires_grad=True)
                report = fd_check(lambda: ad.sum_all(op(x)), [("x", x)])
                assert not report.passed
                assert not report.step_unfit
                assert report.summary().startswith("FAIL max_rel_error=inf")

    def test_restores_parameters_after_probing(self):
        x = Value(np.array([1.0, 2.0]), requires_grad=True)
        original = x.data.copy()
        fd_check(lambda: ad.sum_all(ad.mul(x, x)), [("x", x)])
        assert_array_equal(x.data, original)


class TestRng:
    def test_same_seeds_same_stream(self):
        assert_array_equal(rng(42).normal(size=5), rng(42).normal(size=5))

    def test_substreams_differ(self):
        assert not np.array_equal(rng(42).normal(size=5), rng(42, 1).normal(size=5))

    def test_float_seed_raises_and_numpy_integer_seed_is_its_int(self):
        """A fractional seed is refused, never truncated to another seed's stream."""
        with pytest.raises(TypeError):
            rng(1.5)
        with pytest.raises(TypeError):
            rng(3, 1.0)
        with pytest.raises(TypeError):  # operator.index(True) is 1: a bool would draw seed 1
            rng(True)
        with pytest.raises(TypeError):
            rng(3, False)
        assert_array_equal(rng(np.int64(3)).normal(size=5), rng(3).normal(size=5))
        with pytest.raises(ConfigError, match="^seed must be non-negative, got -1$"):
            rng(np.int64(-1))


# ---------------------------------------------------------------------------
# one-pass txn ops against the implementations they replaced
# ---------------------------------------------------------------------------
# The ref_* functions below are the previous implementations, kept verbatim
# but for their kink margins, as oracles: every value, gradient and kink side
# of the rewritten ops must equal theirs bit for bit.  They compute the kink
# side eagerly.


def ref_relu(x) -> Value:
    mask = x.data > 0.0

    def grad_fn(g):
        return (g * mask,)

    return ad._node(np.where(mask, x.data, 0.0), (x,), grad_fn, "relu", kink_side=lambda: mask)


def ref_adaptive_max_pool1d(x, n: int) -> Value:
    if x.data.ndim < 2:
        raise ShapeError("adaptive_max_pool1d expects a rank-2 or rank-3 value")
    t = x.data.shape[-2]
    if not 1 <= n <= t:
        raise ConfigError(f"segment count {n} must lie in [1, {t}]")
    bounds = ad._segment_bounds(t, n)
    pieces = []
    argmax = []
    for lo, hi in bounds:
        seg = x.data[..., lo:hi, :]
        idx = np.argmax(seg, axis=-2)
        argmax.append(idx)
        pieces.append(np.take_along_axis(seg, idx[..., None, :], axis=-2))
    out = np.concatenate(pieces, axis=-2)

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        for i, (lo, hi) in enumerate(bounds):
            np.put_along_axis(gx[..., lo:hi, :], argmax[i][..., None, :],
                              g[..., i:i + 1, :], axis=-2)
        return (gx,)

    side = np.stack(argmax)
    return ad._node(out, (x,), grad_fn, "adaptive_max_pool1d", kink_side=lambda: side)


def ref_global_max_pool_time(x) -> Value:
    if x.data.ndim < 2:
        raise ShapeError("global_max_pool_time expects a rank-2 or rank-3 value")
    idx = np.argmax(x.data, axis=-2)
    out = np.take_along_axis(x.data, idx[..., None, :], axis=-2)[..., 0, :]

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx[..., None, :], g[..., None, :], axis=-2)
        return (gx,)

    return ad._node(out, (x,), grad_fn, "global_max_pool_time", kink_side=lambda: idx)


def ref_depthwise_conv1d(x, kernels) -> Value:
    k, c = kernels.data.shape
    t = x.data.shape[-2]
    p = (k - 1) // 2
    xpad = np.zeros(x.data.shape[:-2] + (t + 2 * p, c))
    xpad[..., p:p + t, :] = x.data
    out = np.zeros_like(x.data)
    for j in range(k):
        out += kernels.data[j] * xpad[..., j:j + t, :]

    def grad_fn(g):
        gpad = np.zeros(x.data.shape[:-2] + (t + 2 * p, c))
        gpad[..., p:p + t, :] = g
        gx = np.zeros_like(x.data)
        gk = np.empty_like(kernels.data)
        for j in range(k):
            gx += kernels.data[j] * gpad[..., 2 * p - j:2 * p - j + t, :]
            gk[j] = (g * xpad[..., j:j + t, :]).reshape(-1, c).sum(axis=0)
        return gx, gk

    return ad._node(out, (x, kernels), grad_fn, "depthwise_conv1d")


def ref_pointwise_conv1d(x, w, bias) -> Value:
    out = x.data @ w.data + bias.data
    cin = x.data.shape[-1]

    def grad_fn(g):
        gw = x.data.reshape(-1, cin).T @ g.reshape(-1, w.data.shape[1])
        return g @ w.data.T, gw, g.reshape(-1, bias.data.shape[0]).sum(axis=0)

    return ad._node(out, (x, w, bias), grad_fn, "pointwise_conv1d")


def ref_batch_norm(x, gamma, beta, state: BnState, mode: str = "train",
                   momentum: float = ad.BN_MOMENTUM, eps: float = ad.EPS_BN) -> Value:
    c = x.data.shape[-1]
    if mode not in ("train", "infer"):
        raise ConfigError(f"unknown batch_norm mode {mode!r}")
    flat = x.data.reshape(-1, c)
    n = flat.shape[0]
    if mode == "train":
        if n < 2:
            raise ConfigError("train-mode batch_norm needs at least 2 positions per channel")
        mean = flat.mean(axis=0)
        var = flat.var(axis=0)
        state.mean[:] = momentum * state.mean + (1.0 - momentum) * mean
        state.var[:] = momentum * state.var + (1.0 - momentum) * var
    else:
        mean = state.mean.copy()
        var = state.var.copy()
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (flat - mean) * ivar
    out = (gamma.data * xhat + beta.data).reshape(x.data.shape)

    def grad_fn(g):
        gf = g.reshape(-1, c)
        gbeta = gf.sum(axis=0)
        ggamma = (gf * xhat).sum(axis=0)
        gxhat = gf * gamma.data
        if mode == "train":
            gx = (ivar / n) * (n * gxhat - gxhat.sum(axis=0)
                               - xhat * (gxhat * xhat).sum(axis=0))
        else:
            gx = gxhat * ivar
        return gx.reshape(x.data.shape), ggamma, gbeta

    return ad._node(out, (x, gamma, beta), grad_fn, "batch_norm")


REFERENCE_OPS = {"relu": ref_relu, "adaptive_max_pool1d": ref_adaptive_max_pool1d,
                 "global_max_pool_time": ref_global_max_pool_time,
                 "depthwise_conv1d": ref_depthwise_conv1d,
                 "pointwise_conv1d": ref_pointwise_conv1d, "batch_norm": ref_batch_norm}


def assert_same_bits(a, b):
    """Equal shapes and bytes: tells -0.0 from +0.0 and compares NaNs."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), (a, b)


def tie_heavy(gen, *shape):
    """Values from a small set with both zeros, so exact ties are common."""
    return gen.choice([-1.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0], size=shape)


def run_op(op, arrays, trainable, *args, **kwargs):
    """Forward, backward against a fixed cotangent, and the kink sides."""
    leaves = [Value(a.copy(), requires_grad=t) for a, t in zip(arrays, trainable)]
    out = op(*leaves, *args, **kwargs)
    cot = Value(np.random.default_rng(7).normal(size=out.data.shape))
    root = ad.sum_all(ad.mul(out, cot))
    backward(root)
    grads = [leaf.grad for leaf in leaves]
    return out.data, grads, ad._kink_sides(root)


def assert_same_run(new, ref):
    (out, grads, sides), (r_out, r_grads, r_sides) = new, ref
    assert_same_bits(out, r_out)
    for g, r in zip(grads, r_grads):
        assert_same_bits(g, r)
    assert len(sides) == len(r_sides)
    for s, r in zip(sides, r_sides):
        assert_same_bits(s, r)


class TestOnePassOpsMatchReference:
    @pytest.mark.parametrize("shape", [(7, 3), (4, 7, 3), (2, 12, 2), (3, 5, 4)])
    def test_adaptive_pool(self, shape):
        """T not divisible by n, n == 1 and n == T; ties go to the earliest frame."""
        gen = np.random.default_rng(42)
        t = shape[-2]
        for draw in (tie_heavy, lambda g, *s: g.normal(size=s)):
            x = draw(gen, *shape)
            for n in sorted({1, 2, 3, t - 1, t}):
                new = run_op(ad.adaptive_max_pool1d, [x], [True], n)
                ref = run_op(ref_adaptive_max_pool1d, [x], [True], n)
                if n == t:  # one frame per segment: the input itself, with no kink side
                    assert_same_run(new, ref[:2] + ([],))
                    continue
                # the reference stacks its per-segment argmax segment-first
                ref = ref[:2] + ([np.moveaxis(ref[2][0], 0, -2)],)
                assert_same_run(new, ref)

    def test_adaptive_pool_routes_a_tie_to_the_earliest_frame(self):
        # segments [0, 2), [2, 4), [4, 7), each holding a tie
        x = np.array([[[2.0], [2.0], [1.0], [1.0], [-0.0], [0.0], [-1.0]]])
        _, (grad,), _ = run_op(ad.adaptive_max_pool1d, [x], [True], 3)
        _, (ref_grad,), _ = run_op(ref_adaptive_max_pool1d, [x], [True], 3)
        assert_same_bits(grad, ref_grad)
        assert np.flatnonzero(grad[0, :, 0]).tolist() == [0, 2, 4]

    @pytest.mark.parametrize("shape", [(6, 4), (3, 6, 4), (2, 1, 3)])
    def test_global_max_pool(self, shape):
        gen = np.random.default_rng(42)
        for x in (tie_heavy(gen, *shape), gen.normal(size=shape)):
            assert_same_run(run_op(ad.global_max_pool_time, [x], [True]),
                            run_op(ref_global_max_pool_time, [x], [True]))

    def test_signed_zero_max_is_read_at_the_earliest_frame(self):
        x = np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, -2.0]]).T[:, :, None].repeat(2, axis=2)
        for op, ref in ((ad.global_max_pool_time, ref_global_max_pool_time),
                        (lambda v: ad.adaptive_max_pool1d(v, 1),
                         lambda v: ref_adaptive_max_pool1d(v, 1))):
            assert_same_bits(op(Value(x)).data, ref(Value(x)).data)

    def test_relu_on_signed_zeros_and_non_finite(self):
        """np.fmax keeps -0.0 on some element positions (17 here reaches one of them)."""
        for x in (np.array([[-0.0, 0.0, -1.0, 2.5], [np.nan, np.inf, -np.inf, 1e-300]]),
                  np.full((1, 17), -0.0), np.array([-0.0])):
            new = run_op(ad.relu, [x], [True])
            ref = run_op(ref_relu, [x], [True])
            assert_same_bits(new[0], ref[0])
            assert_same_bits(new[1][0], ref[1][0])
            assert_same_bits(new[2][0], ref[2][0])
        gen = np.random.default_rng(42)
        for x in (tie_heavy(gen, 3, 5, 4), gen.normal(size=(5, 4))):
            assert_same_run(run_op(ad.relu, [x], [True]), run_op(ref_relu, [x], [True]))

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("shape", [(9, 4), (3, 5, 4)])
    def test_batch_norm(self, mode, shape):
        gen = np.random.default_rng(42)
        x = gen.normal(loc=1.0, scale=2.0, size=shape)
        gamma, beta = gen.normal(size=4), gen.normal(size=4)
        state = BnState(mean=gen.normal(size=4), var=gen.uniform(0.5, 2.0, size=4))
        for trainable in ([True, True, True], [False, True, True], [True, False, False]):
            new_state, ref_state = copy.deepcopy(state), copy.deepcopy(state)
            new = run_op(ad.batch_norm, [x, gamma, beta], trainable, new_state, mode=mode)
            ref = run_op(ref_batch_norm, [x, gamma, beta], trainable, ref_state, mode=mode)
            assert_same_run(new, ref)
            assert_same_bits(new_state.mean, ref_state.mean)
            assert_same_bits(new_state.var, ref_state.var)

    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
    def test_depthwise_conv(self, k):
        """Rank 2 and B in {1, 2, 3, 16}; T from 1 to 64, so kernels longer than the
        sequence too; C = 1 (the tap loop) and C > 1 (the einsum); both zeros."""
        gen = np.random.default_rng(42)
        for lead, t, c in itertools.product([(), (1,), (2,), (3,), (16,)], [1, 2, 5, 16, 30, 64],
                                            [1, 2, 3, 7, 16, 64]):
            x, kernels = tie_heavy(gen, *lead, t, c), gen.normal(size=(k, c))
            for trainable in ([True, True], [False, True], [True, False]):
                assert_same_run(run_op(ad.depthwise_conv1d, [x, kernels], trainable),
                                run_op(ref_depthwise_conv1d, [x, kernels], trainable))

    @pytest.mark.parametrize("layout", ["fortran", "transposed", "strided"])
    def test_depthwise_conv_non_contiguous_incoming_gradient(self, layout):
        """The kernel gradient's einsum gives the loop's bits on a C-contiguous gradient
        only, so the op copies any other; both gradients must still be the oracle's."""
        gen = np.random.default_rng(42)
        for lead, t, c, k in itertools.product([(), (1,), (3,), (16,)], [1, 5, 30], [1, 2, 7, 64],
                                               [1, 3, 7]):
            shape = (*lead, t, c)
            g = {"fortran": lambda: np.asfortranarray(gen.normal(size=shape)),
                 "transposed": lambda: gen.normal(size=shape[::-1]).T,
                 "strided": lambda: gen.normal(size=(*lead, t, 2 * c))[..., ::2]}[layout]()
            x, kernels = gen.normal(size=shape), gen.normal(size=(k, c))
            grads = [op(Value(x, requires_grad=True), Value(kernels, requires_grad=True))
                     ._grad_fn(g) for op in (ad.depthwise_conv1d, ref_depthwise_conv1d)]
            for new, ref in zip(*grads):
                assert_same_bits(new, ref)

    @pytest.mark.parametrize("c", [1, 4])
    def test_depthwise_conv_non_finite_input(self, c):
        """NaN and +-inf in the input.  Where two NaNs meet in a sum, einsum may keep the
        other one's sign or payload bits: at C > 1 the forward and the kernel gradient
        match the oracle bit for bit at every non-NaN element and hold NaN at the same
        elements.  The input gradient does not read the input and stays bytewise, and
        the tap loop at C = 1 is the oracle's arithmetic, so it stays bytewise too."""
        gen = np.random.default_rng(42)
        x = gen.choice([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -2.5], size=(3, 16, c))
        kernels = gen.normal(size=(5, c))
        with np.errstate(invalid="ignore"):
            new, ref = (run_op(op, [x, kernels], [True, True])
                        for op in (ad.depthwise_conv1d, ref_depthwise_conv1d))
        (out, (gx, gk), _), (r_out, (r_gx, r_gk), _) = new, ref
        assert np.isnan(r_out).any() and not np.isnan(r_out).all() and np.isnan(r_gk).any()
        if c == 1:
            assert_same_run(new, ref)
        assert_same_bits(gx, r_gx)
        for got, want in ((out, r_out), (gk, r_gk)):
            assert_array_equal(np.isnan(got), np.isnan(want))
            assert_same_bits(got[~np.isnan(got)], want[~np.isnan(want)])

    def test_pointwise_conv(self):
        gen = np.random.default_rng(42)
        w, b = gen.normal(size=(3, 5)), gen.normal(size=5)
        for shape in ((6, 3), (2, 6, 3)):
            x = gen.normal(size=shape)
            for trainable in ([True, True, True], [False, True, True], [True, False, False]):
                assert_same_run(run_op(ad.pointwise_conv1d, [x, w, b], trainable),
                                run_op(ref_pointwise_conv1d, [x, w, b], trainable))

    @pytest.mark.parametrize("rows", [1, 2, 16])
    def test_classifier_matches_the_matmul_add_composite(self, rows):
        """Every model's classifier is one pointwise_conv1d node on rows [B x R]; its
        logits and gradients are the bytes of the two-node add(matmul(x, w), b) it
        replaced, also at B = 1, where the product is a matrix-vector one."""
        gen = np.random.default_rng(rows)
        x, w, b = gen.normal(size=(rows, 24)), gen.normal(size=(24, 10)), gen.normal(size=10)
        for trainable in ([True, True, True], [False, True, True]):
            assert_same_run(run_op(ad.pointwise_conv1d, [x, w, b], trainable),
                            run_op(lambda x, w, b: ad.add(ad.matmul(x, w), b), [x, w, b],
                                   trainable))


class TestGradientsNothingUses:
    def test_constant_parents_get_none(self):
        """A grad_fn computes no gradient for a parent that does not require one."""
        gen = np.random.default_rng(42)
        v = lambda *shape: Value(gen.normal(size=shape), requires_grad=True)
        c = lambda *shape: Value(gen.normal(size=shape))
        built = [ad.add(c(2, 3), v(3)), ad.mul(v(2, 3), c(3)), ad.matmul(c(2, 3), v(3, 4)),
                 ad.concat([v(1, 3), c(2, 3)]), ad.row_dot(c(2, 4, 3), v(2, 3)),
                 ad.weighted_row_sum(v(2, 2, 4), c(2, 4, 3)),
                 ad.pointwise_conv1d(c(2, 5, 3), v(3, 4), v(4)),
                 ad.depthwise_conv1d(c(2, 5, 3), v(3, 3)), ad.depthwise_conv1d(v(2, 5, 3), c(3, 3)),
                 ad.batch_norm(c(2, 5, 3), v(3), c(3), BnState.fresh(3)),
                 ad.batch_norm(v(2, 5, 3), c(3), v(3), BnState.fresh(3), mode="infer")]
        for out in built:
            grads = out._grad_fn(np.ones_like(out.data))
            for parent, grad in zip(out._parents, grads):
                assert (grad is None) == (not parent.requires_grad), out._op


class TestKinkBookkeepingOnDemand:
    @pytest.mark.parametrize("model", ["txn", "satt"])
    def test_train_step_and_evaluate_never_ask_for_kink_sides(self, model, monkeypatch):
        """Only gradcheck evaluates the kink-side thunks of relu and l2_normalize."""
        from seqcls.data import FeatureSequence, VideoSample
        from seqcls.training import TrainConfig, batch_logits, build_model, evaluate, model_kwargs

        def refuse():
            raise AssertionError("kink side computed outside gradcheck")

        node, guarded = ad._node, []

        def refusing_node(data, parents, grad_fn, op, kink_side=None):
            if op in ("relu", "l2_normalize"):
                guarded.append(op)
                kink_side = refuse
            return node(data, parents, grad_fn, op, kink_side=kink_side)

        gen = np.random.default_rng(42)
        cfg = TrainConfig(model=model, txn_pad_len=6, txn_segments=3, txn_channels=4,
                          satt_heads=2)
        params = build_model(model, [("rgb", 4)], 3, model_kwargs(cfg), rng(0))
        samples = [VideoSample(f"v{i}", i, [FeatureSequence("rgb", gen.normal(size=(t, 4)))])
                   for i, t in enumerate((4, 6, 9))]
        monkeypatch.setattr(ad, "_node", refusing_node)
        loss = ad.cross_entropy(batch_logits(model, params, samples, "train"), [0, 1, 2])
        backward(loss)
        assert all(np.isfinite(v.grad).all() for _, v in params.parameters())
        evaluate(model, params, samples)
        assert guarded  # the guard was in the graph, and asking for the sides trips it
        with pytest.raises(AssertionError, match="kink side"):
            ad._kink_sides(loss)

    @pytest.mark.parametrize("case", ["txn_block", "txn_net"])
    def test_gradcheck_txn_cases_see_the_eager_values(self, case, monkeypatch):
        from seqcls.gradcheck import CASES

        def records():
            out = []
            for seed in range(4):
                f, _ = CASES[case](rng(seed, 0))
                out.append(ad._kink_sides(f()))
            return out

        lazy = records()
        for name, ref in REFERENCE_OPS.items():
            monkeypatch.setattr(ad, name, ref)
        eager = records()
        for sides, ref_sides in zip(lazy, eager):
            assert sides and len(sides) == len(ref_sides)
            for s, r in zip(sides, ref_sides):
                assert_same_bits(s, r)


class TestTxnAgainstTheOracles:
    @pytest.mark.parametrize("channels", [3, 1])
    def test_training_writes_the_loop_oracle_bytes(self, channels, tmp_path, monkeypatch):
        """Two epochs of txn with the einsum path (C = 3) or the tap loop (C = 1), then with
        the oracle patched in: checkpoint, metrics and scores are equal bytes."""
        from seqcls.cli import EXIT_OK, main

        data = tmp_path / "data"
        assert main(["synthgen", "--out", str(data), "--classes", "3", "--videos-per-class", "5",
                     "--frames", "8", "--signal-frames", "3", "--modalities", "rgb:4,flow:3",
                     "--seed", "5"]) == EXIT_OK
        runs = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(ad, "depthwise_conv1d", ref_depthwise_conv1d)
            runs.append(tmp_path / f"run{int(patched)}")
            assert main(["train", "--train", str(data / "train.mmf"),
                         "--val", str(data / "val.mmf"), "--out", str(runs[-1]),
                         "--model", "txn", "--epochs", "2",
                         "--batch-size", "4", "--txn-pad-len", "8", "--txn-segments", "8",
                         "--txn-channels", str(channels), "--quiet"]) == EXIT_OK
        for name in ("checkpoint.ckpt", "metrics.txt", "scores.csv"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_frame_pooling_is_no_graph_node(self, monkeypatch):
        """The input frames are constants, so txn's prepare pools them in NumPy: a
        train-mode graph holds no adaptive_max_pool1d node, and its logits and gradients
        are the bytes of one that pools through the oracle op."""
        from seqcls.data import FeatureSequence, VideoSample
        from seqcls.training import TrainConfig, batch_logits, build_model, model_kwargs

        gen = np.random.default_rng(42)
        samples = [VideoSample(f"v{i}", i % 3, [FeatureSequence("rgb", gen.normal(size=(t, 4))),
                                                FeatureSequence("flow", gen.normal(size=(t, 3)))])
                   for i, t in enumerate((4, 6, 9, 2))]
        cfg = TrainConfig(model="txn", txn_pad_len=6, txn_segments=3, txn_channels=4)

        def step():
            params = build_model("txn", [("rgb", 4), ("flow", 3)], 3, model_kwargs(cfg), rng(0))
            logits = batch_logits("txn", params, samples, "train")
            loss = ad.cross_entropy(logits, [s.label for s in samples])
            backward(loss)
            pools = [n for n in graph_nodes(loss) if n._op == "adaptive_max_pool1d"]
            return logits.data, [v.grad for _, v in params.parameters()], len(pools)

        logits, grads, pools = step()
        assert pools == 0
        calls = []

        def oracle_pool(x, n):
            calls.append(n)
            return ref_adaptive_max_pool1d(Value(x), n).data, None, None

        monkeypatch.setattr(ad, "segment_max", oracle_pool)
        ref_logits, ref_grads, _ = step()
        assert calls == [3] * 8  # one per video and stream, made in prepare
        assert_same_bits(logits, ref_logits)
        for g, r in zip(grads, ref_grads):
            assert_same_bits(g, r)
