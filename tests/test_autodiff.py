"""Unit tests for the reverse-mode differentiation engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from seqcls import autodiff as ad
from seqcls.autodiff import BnState, Value, backward, fd_check, rng, zero_grads
from seqcls.errors import ConfigError, DataError, NumericError, ShapeError, UsageError


def leaf(gen, *shape, low=0.1, high=1.0):
    """Random requires_grad leaf bounded away from zero (clear of relu kinks)."""
    data = gen.uniform(low, high, size=shape) * gen.choice([-1.0, 1.0], size=shape)
    return Value(data, requires_grad=True)


class TestValue:
    def test_wraps_float64_with_zeroed_grad(self):
        """Construction coerces to float64 and allocates a zero gradient."""
        v = Value([1, 2, 3])
        assert v.data.dtype == np.float64
        assert_array_equal(v.grad, np.zeros(3))
        assert not v.requires_grad

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

    def test_zero_grads_accepts_named_pairs(self):
        x = Value(1.0, requires_grad=True)
        x.grad[...] = 5.0
        zero_grads([("x", x)])
        assert_array_equal(x.grad, 0.0)

    def test_constant_inputs_stay_untouched(self):
        """requires_grad=False leaves collect no gradient."""
        x = Value(np.ones(3), requires_grad=True)
        c = Value(2.0 * np.ones(3))
        backward(ad.sum_all(ad.mul(x, c)))
        assert_allclose(x.grad, c.data)
        assert_array_equal(c.grad, np.zeros(3))

    def test_non_scalar_root_rejected(self):
        x = Value(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError):
            backward(ad.mul(x, x))

    def test_forward_only_graph_allocates_no_intermediate_grads(self):
        """Only requires_grad leaves own a buffer until backward or a read."""
        gen = np.random.default_rng(42)
        w = Value(gen.normal(size=(2, 3)), requires_grad=True)
        x = Value(gen.normal(size=(4, 5, 3)))
        out = ad.l2_normalize(ad.weighted_row_sum(ad.softmax_sharp(ad.row_dot(x, w), 1.0), x))
        nodes = list(ad._walk(out))
        assert len(nodes) == 6
        for node in nodes:
            assert (node._grad is not None) == (node is w), node
        assert_array_equal(out.grad, np.zeros((4, 2, 3)))
        assert_array_equal(x.grad, np.zeros((4, 5, 3)))

    def test_backward_stores_private_copies_of_flows(self):
        """Intermediate grads never alias one another or the flows they came from."""
        for passes in (1, 2):  # a second pass adds up before any read
            x = Value(np.ones(3), requires_grad=True)
            h = ad.add(x, 0.0)  # add hands its own flow on to h
            y = ad.add(h, 0.0)
            for _ in range(passes):
                backward(ad.sum_all(y))
            assert_array_equal(y.grad, passes * np.ones(3))
            y.grad[...] = 7.0
            assert_array_equal(h.grad, passes * np.ones(3))
            assert_array_equal(x.grad, passes * np.ones(3))
            h.grad[...] = 5.0
            backward(ad.sum_all(y))
            assert_array_equal(h.grad, 6.0 * np.ones(3))
            assert_array_equal(y.grad, 8.0 * np.ones(3))
            zero_grads([h])
            assert_array_equal(h.grad, np.zeros(3))

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

    def test_concat_rejects_off_axis_mismatch(self):
        with pytest.raises(ShapeError):
            ad.concat([Value(np.ones((2, 3))), Value(np.ones((2, 4)))], axis=0)

    def test_stack_matches_numpy_and_splits_gradient(self):
        """stack joins along any new axis; each input gets its own slice of the flow."""
        gen = np.random.default_rng(42)
        rows = [gen.normal(size=4) for _ in range(3)]
        assert_array_equal(ad.stack([Value(r) for r in rows]).data, np.stack(rows))
        mats = [Value(gen.normal(size=(2, 4)), requires_grad=True) for _ in range(3)]
        for axis in (0, 1, 2, -1):
            out = ad.stack(mats, axis=axis)
            assert_array_equal(out.data, np.stack([m.data for m in mats], axis=axis))
        c = Value(gen.normal(size=(2, 3, 4)))
        backward(ad.sum_all(ad.mul(ad.stack(mats, axis=1), c)))
        for i, m in enumerate(mats):
            assert_array_equal(m.grad, c.data[:, i, :])

    def test_stack_rejects_mismatched_or_empty_input(self):
        with pytest.raises(ShapeError):
            ad.stack([Value(np.ones(3)), Value(np.ones(4))])
        with pytest.raises(ConfigError):
            ad.stack([])
        with pytest.raises(ShapeError):  # the result would exceed rank 3
            ad.stack([Value(np.ones((2, 2, 2)))])

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

    def test_affine_takes_a_batch_of_rows(self):
        gen = np.random.default_rng(42)
        w, b = gen.normal(size=(4, 2)), gen.normal(size=2)
        x = gen.normal(size=(3, 4))
        assert_allclose(ad.affine(Value(x), Value(w), Value(b)).data, x @ w + b)
        with pytest.raises(ShapeError):
            ad.affine(Value(x[0]), Value(w), Value(b))

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
        """Reordering frames and weights together cannot change a single bit."""
        gen = np.random.default_rng(42)
        w, x = gen.normal(size=(1, 2, 7)), gen.normal(size=(1, 7, 4))
        base = ad.weighted_row_sum(Value(w), Value(x)).data
        for _ in range(20):
            perm = gen.permutation(7)
            permuted = ad.weighted_row_sum(Value(w[:, :, perm]), Value(x[:, perm])).data
            assert_array_equal(permuted, base)


class TestBatchedAttentionOps:
    """Rank-3 attention ops reproduce a per-(video, head) NumPy oracle bitwise."""

    def test_row_dot_batched_matches_per_row_bitwise(self):
        gen = np.random.default_rng(42)
        x, w = gen.normal(size=(3, 7, 17)), gen.normal(size=(4, 17))
        out = ad.row_dot(Value(x), Value(w)).data
        assert out.shape == (3, 4, 7)
        for b in range(3):
            for h in range(4):
                assert_array_equal(out[b, h], np.sum(x[b] * w[h], axis=-1))

    def test_weighted_row_sum_batched_matches_per_row_bitwise(self):
        gen = np.random.default_rng(42)
        wts, x = gen.normal(size=(3, 4, 7)), gen.normal(size=(3, 7, 5))
        out = ad.weighted_row_sum(Value(wts), Value(x)).data
        assert out.shape == (3, 4, 5)
        for b in range(3):
            for h in range(4):
                # addends sorted along time before summing, as the op documents
                expected = np.sort(wts[b, h][:, None] * x[b], axis=0).sum(axis=0)
                assert_array_equal(out[b, h], expected)

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
        """Permuting the scores permutes the weights without changing bits."""
        gen = np.random.default_rng(42)
        s = gen.normal(size=9)
        base = ad.softmax_sharp(Value(s), 1.0).data
        for _ in range(20):
            perm = gen.permutation(9)
            assert_array_equal(ad.softmax_sharp(Value(s[perm]), 1.0).data, base[perm])

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

    def test_restores_parameters_after_probing(self):
        x = Value(np.array([1.0, 2.0]), requires_grad=True)
        original = x.data.copy()
        fd_check(lambda: ad.sum_all(ad.mul(x, x)), [x])
        assert_array_equal(x.data, original)

    def test_kink_margin_tracks_distance_to_relu(self):
        """min_kink_margin reports how far inputs sit from the nearest kink."""
        x = Value(np.array([0.5, -0.25]), requires_grad=True)
        out = ad.sum_all(ad.relu(x))
        assert ad.min_kink_margin(out) == pytest.approx(0.25)

    def test_constant_subtree_margin_is_infinite(self):
        """Kinks below non-trainable nodes cannot be crossed by perturbation."""
        out = ad.sum_all(ad.relu(Value(np.zeros(3))))
        assert ad.min_kink_margin(out) == np.inf


class TestRng:
    def test_same_seeds_same_stream(self):
        assert_array_equal(rng(42).normal(size=5), rng(42).normal(size=5))

    def test_substreams_differ(self):
        assert not np.array_equal(rng(42).normal(size=5), rng(42, 1).normal(size=5))


# ---------------------------------------------------------------------------
# one-pass txn ops against the implementations they replaced
# ---------------------------------------------------------------------------
# The ref_* functions below are the previous implementations, kept verbatim
# as oracles: every value, gradient and kink record of the rewritten ops must
# equal theirs bit for bit.  They compute kink bookkeeping eagerly.


def ref_relu(x) -> Value:
    x = ad._lift(x)
    mask = x.data > 0.0

    def grad_fn(g):
        return (g * mask,)

    return ad._node(np.where(mask, x.data, 0.0), (x,), grad_fn, "relu",
                    kink_margin=np.abs(x.data).min(), kink_side=mask)


def ref_adaptive_max_pool1d(x, n: int) -> Value:
    x = ad._lift(x)
    if x.data.ndim < 2:
        raise ShapeError("adaptive_max_pool1d expects a rank-2 or rank-3 value")
    t = x.data.shape[-2]
    if not 1 <= n <= t:
        raise ConfigError(f"segment count {n} must lie in [1, {t}]")
    bounds = ad._segment_bounds(t, n)
    pieces = []
    argmax = []
    margin = np.inf
    for lo, hi in bounds:
        seg = x.data[..., lo:hi, :]
        idx = np.argmax(seg, axis=-2)
        argmax.append(idx)
        pieces.append(np.take_along_axis(seg, idx[..., None, :], axis=-2))
        if hi - lo >= 2:
            top2 = np.partition(seg, hi - lo - 2, axis=-2)[..., -2:, :]
            margin = min(margin, float((top2[..., 1, :] - top2[..., 0, :]).min()))
    out = np.concatenate(pieces, axis=-2)

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        for i, (lo, hi) in enumerate(bounds):
            np.put_along_axis(gx[..., lo:hi, :], argmax[i][..., None, :],
                              g[..., i:i + 1, :], axis=-2)
        return (gx,)

    return ad._node(out, (x,), grad_fn, "adaptive_max_pool1d", kink_margin=margin,
                    kink_side=np.stack(argmax))


def ref_global_max_pool_time(x) -> Value:
    x = ad._lift(x)
    if x.data.ndim < 2:
        raise ShapeError("global_max_pool_time expects a rank-2 or rank-3 value")
    t = x.data.shape[-2]
    idx = np.argmax(x.data, axis=-2)
    out = np.take_along_axis(x.data, idx[..., None, :], axis=-2)[..., 0, :]
    margin = np.inf
    if t >= 2:
        top2 = np.partition(x.data, t - 2, axis=-2)[..., -2:, :]
        margin = float((top2[..., 1, :] - top2[..., 0, :]).min())

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx[..., None, :], g[..., None, :], axis=-2)
        return (gx,)

    return ad._node(out, (x,), grad_fn, "global_max_pool_time", kink_margin=margin,
                    kink_side=idx)


def ref_depthwise_conv1d(x, kernels) -> Value:
    x, kernels = ad._lift(x), ad._lift(kernels)
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
    x, w, bias = ad._lift(x), ad._lift(w), ad._lift(bias)
    out = x.data @ w.data + bias.data
    cin = x.data.shape[-1]

    def grad_fn(g):
        gw = x.data.reshape(-1, cin).T @ g.reshape(-1, w.data.shape[1])
        return g @ w.data.T, gw, g.reshape(-1, bias.data.shape[0]).sum(axis=0)

    return ad._node(out, (x, w, bias), grad_fn, "pointwise_conv1d")


def ref_batch_norm(x, gamma, beta, state: BnState, mode: str = "train",
                   momentum: float = ad.BN_MOMENTUM, eps: float = ad.EPS_BN) -> Value:
    x, gamma, beta = ad._lift(x), ad._lift(gamma), ad._lift(beta)
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
    """Forward, backward against a fixed cotangent, and the kink records."""
    leaves = [Value(a.copy(), requires_grad=t) for a, t in zip(arrays, trainable)]
    out = op(*leaves, *args, **kwargs)
    cot = Value(np.random.default_rng(7).normal(size=out.data.shape))
    root = ad.sum_all(ad.mul(out, cot))
    backward(root)
    grads = [leaf.grad for leaf in leaves]
    return out.data, grads, ad.min_kink_margin(root), ad._kink_sides(root)


def assert_same_run(new, ref):
    (out, grads, margin, sides), (r_out, r_grads, r_margin, r_sides) = new, ref
    assert_same_bits(out, r_out)
    for g, r in zip(grads, r_grads):
        assert_same_bits(g, r)
    assert margin == r_margin
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
                    assert_same_run(new, ref[:3] + ([],))
                    continue
                # the reference stacks its per-segment argmax segment-first
                ref = ref[:3] + ([np.moveaxis(ref[3][0], 0, -2)],)
                assert_same_run(new, ref)

    def test_adaptive_pool_routes_a_tie_to_the_earliest_frame(self):
        # segments [0, 2), [2, 4), [4, 7), each holding a tie
        x = np.array([[[2.0], [2.0], [1.0], [1.0], [-0.0], [0.0], [-1.0]]])
        _, (grad,), _, _ = run_op(ad.adaptive_max_pool1d, [x], [True], 3)
        _, (ref_grad,), _, _ = run_op(ref_adaptive_max_pool1d, [x], [True], 3)
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
            assert_same_bits(new[3][0], ref[3][0])
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
            new_state, ref_state = state.copy(), state.copy()
            new = run_op(ad.batch_norm, [x, gamma, beta], trainable, new_state, mode=mode)
            ref = run_op(ref_batch_norm, [x, gamma, beta], trainable, ref_state, mode=mode)
            assert_same_run(new, ref)
            assert_same_bits(new_state.mean, ref_state.mean)
            assert_same_bits(new_state.var, ref_state.var)

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    def test_depthwise_conv(self, k):
        """Kernels shorter and longer than the sequence, with exact zeros in the input."""
        gen = np.random.default_rng(42)
        for shape in ((8, 3), (2, 8, 3), (3, 3), (2, 2, 3)):
            x, kernels = tie_heavy(gen, *shape), gen.normal(size=(k, 3))
            for trainable in ([True, True], [False, True], [True, False]):
                assert_same_run(run_op(ad.depthwise_conv1d, [x, kernels], trainable),
                                run_op(ref_depthwise_conv1d, [x, kernels], trainable))

    def test_pointwise_conv(self):
        gen = np.random.default_rng(42)
        w, b = gen.normal(size=(3, 5)), gen.normal(size=5)
        for shape in ((6, 3), (2, 6, 3)):
            x = gen.normal(size=shape)
            for trainable in ([True, True, True], [False, True, True], [True, False, False]):
                assert_same_run(run_op(ad.pointwise_conv1d, [x, w, b], trainable),
                                run_op(ref_pointwise_conv1d, [x, w, b], trainable))


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
    def test_txn_train_step_never_partitions(self, monkeypatch):
        """Train and eval forwards compute no kink margin: np.partition and np.abs never run."""
        from seqcls.training import TrainConfig, build_model, model_kwargs

        def refuse(*args, **kwargs):
            raise AssertionError("kink bookkeeping computed outside gradcheck")

        gen = np.random.default_rng(42)
        cfg = TrainConfig(model="txn", txn_pad_len=6, txn_segments=3, txn_channels=4)
        params = build_model("txn", [("rgb", 4)], 3, model_kwargs(cfg), rng(0))
        batch = [{"rgb": Value(gen.normal(size=(int(t), 4)))} for t in (4, 6, 9)]
        monkeypatch.setattr(np, "partition", refuse)
        monkeypatch.setattr(np, "abs", refuse)
        loss = ad.cross_entropy(params.forward_batch(batch, "train"), [0, 1, 2])
        backward(loss)
        assert all(np.isfinite(v.grad).all() for _, v in params.parameters())
        params.forward_batch(batch, "infer")

    @pytest.mark.parametrize("case", ["txn_block", "txn_net"])
    def test_gradcheck_txn_cases_see_the_eager_values(self, case, monkeypatch):
        from seqcls.gradcheck import CASES

        def records():
            out = []
            for seed in range(4):
                f, _ = CASES[case](rng(seed, 0))
                root = f()
                out.append((ad.min_kink_margin(root), ad._kink_sides(root)))
            return out

        lazy = records()
        for name, ref in REFERENCE_OPS.items():
            monkeypatch.setattr(ad, name, ref)
        eager = records()
        for (margin, sides), (ref_margin, ref_sides) in zip(lazy, eager):
            assert np.isfinite(margin) and margin == ref_margin
            assert sides and len(sides) == len(ref_sides)
            for s, r in zip(sides, ref_sides):
                assert_same_bits(s, r)
