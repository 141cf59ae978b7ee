"""Unit tests for the attention pooling head and network."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from seqcls import autodiff as ad
from seqcls import satt
from seqcls.autodiff import Value, backward, fd_check, rng
from seqcls.data import FeatureSequence, VideoSample, modality_frames
from seqcls.errors import ConfigError, ShapeError
from seqcls.satt import (
    MAX_NUM_HEADS,
    AttentionGroupParams,
    SattHeadParams,
    SattNetParams,
    _frame_order,
    _group_block,
    _frame_orders,
    satt_forward_batch,
    satt_head_forward,
    satt_net_forward,
    satt_representations,
)
from seqcls.training import evaluate


def head_oracle(x, w, a, b, alpha):
    """Plain-numpy reimplementation of one attention head."""
    s = x @ w
    e = np.exp(alpha * (s - s.max()))
    lam = e / e.sum()
    v = (lam @ x) * a + b
    return v / max(np.linalg.norm(v), 1e-12), lam


def unit(v):
    """Unit rows over the last axis, with the engine's clamp."""
    return v / np.maximum(np.sqrt(np.sum(v * v, axis=-1, keepdims=True)), 1e-12)


def group_oracle_bitwise(x, group):
    """One group's representation in NumPy, replaying the engine's operation order.

    The frames sorted lexicographically by their bit patterns; then one
    matmul scores them against every head, a max-shifted softmax, one matmul
    pools them, shift and scale, unit norm per head; then the heads
    concatenated and unit-normalized again.
    """
    x = x[np.lexsort(x.view(np.uint64).T)]
    w, a, b = group.w.data, group.a.data, group.b.data
    s = np.matmul(w, x.T)
    e = np.exp(group.alpha * (s - s.max(axis=-1, keepdims=True)))
    lam = e / np.sum(e, axis=-1, keepdims=True)
    return unit(unit(np.matmul(lam, x) * a + b).reshape(-1))


def make_head(gen, dim):
    return SattHeadParams.init(dim, gen)


def group_heads(group):
    """A group's heads as single-head parameters: row i of its w, a and b."""
    return [SattHeadParams(w=Value(group.w.data[i]), a=Value(group.a.data[i, 0]),
                           b=Value(group.b.data[i, 0])) for i in range(len(group.w.data))]


class TestSattHead:
    def test_two_frame_identity_example(self):
        """Hand-derived case: unit frames, w selects frame 0, logistic weights."""
        params = SattHeadParams(w=Value(np.array([1.0, 0.0]), requires_grad=True),
                                a=Value(1.0, requires_grad=True),
                                b=Value(0.0, requires_grad=True))
        x = Value(np.eye(2))
        out = satt_head_forward(params, x, alpha=1.0)
        # softmax([1, 0]) is [sigma(1), 1 - sigma(1)]; output is its unit vector
        assert_allclose(out.data, [0.9385078997951388, 0.34525776171161965], rtol=1e-12)
        weights = ad.softmax_sharp(ad.row_dot(x, params.w), 1.0)
        assert_allclose(weights.data, [0.7310585786300049, 0.2689414213699951], rtol=1e-12)

    def test_matches_numpy_oracle(self):
        gen = rng(42)
        for _ in range(20):
            t, d = int(gen.integers(1, 9)), int(gen.integers(2, 7))
            params = make_head(gen, d)
            params.a.data[...] = gen.uniform(0.5, 2.0)
            params.b.data[...] = gen.normal()
            x = gen.normal(size=(t, d))
            alpha = float(gen.uniform(0.5, 4.0))
            expected, _ = head_oracle(x, params.w.data, float(params.a.data),
                                      float(params.b.data), alpha)
            assert_allclose(satt_head_forward(params, Value(x), alpha).data,
                            expected, rtol=1e-12, atol=1e-12)

    def test_output_is_unit_norm(self):
        gen = rng(42)
        for _ in range(100):
            params = make_head(gen, 5)
            out = satt_head_forward(params, Value(gen.normal(size=(6, 5))), 1.0)
            assert abs(np.linalg.norm(out.data) - 1.0) <= 1e-9

    def test_frame_permutation_invariant_bitwise(self):
        """Shuffling the frames changes no output bit."""
        gen = rng(42)
        params = make_head(gen, 4)
        x = gen.normal(size=(10, 4))
        base = satt_head_forward(params, Value(x), 1.0).data
        for _ in range(25):
            perm = gen.permutation(10)
            assert_array_equal(satt_head_forward(params, Value(x[perm]), 1.0).data, base)

    def test_sharp_alpha_collapses_to_best_frame(self):
        """With a unit score gap and alpha=100 the head returns the argmax frame."""
        gen = rng(42)
        for _ in range(20):
            params = make_head(gen, 4)
            x = gen.normal(size=(5, 4))
            scores = x @ params.w.data
            best = int(np.argmax(scores))
            x[best] += params.w.data / np.dot(params.w.data, params.w.data)  # widen gap by 1
            weights = ad.softmax_sharp(ad.row_dot(Value(x), params.w), 100.0)
            assert weights.data.max() >= 1.0 - 1e-10
            out = satt_head_forward(params, Value(x), 100.0)
            target = x[best] * float(params.a.data) + float(params.b.data)
            assert_allclose(out.data, target / np.linalg.norm(target), atol=1e-8)

    def test_rejects_bad_shapes(self):
        gen = rng(42)
        params = make_head(gen, 4)
        with pytest.raises(ShapeError):
            satt_head_forward(params, Value(np.ones(4)), 1.0)
        with pytest.raises(ShapeError):
            satt_head_forward(params, Value(np.ones((3, 5))), 1.0)

    def test_gradients_match_finite_differences(self):
        gen = rng(42)
        params = make_head(gen, 4)
        x = Value(gen.normal(size=(6, 4)), requires_grad=True)
        cot = Value(gen.normal(size=4))
        f = lambda: ad.sum_all(ad.mul(satt_head_forward(params, x, 1.5), cot))
        report = fd_check(f, [("x", x), ("w", params.w), ("a", params.a), ("b", params.b)])
        assert report.passed, report.summary()


class TestAttentionGroup:
    def test_equals_concat_then_normalize_oracle(self):
        """A two-head group is the concat of its head outputs, re-normalized.

        Bit for bit against the NumPy oracle that runs both heads in one
        matmul as the group does; the one-head path scores with a matmul of
        its own, so it agrees to within rounding.
        """
        gen = rng(42)
        group = AttentionGroupParams.init("rgb", feature_dim=5, num_heads=2, alpha=1.3, gen=gen)
        net = SattNetParams.init([group], 2, gen)
        x = Value(gen.normal(size=(7, 5)))
        rep = satt_representations(net, net.prepare([{"rgb": x.data}])).data[0]
        assert_array_equal(rep, group_oracle_bitwise(x.data, net.groups[0]))
        expected = ad.l2_normalize(ad.concat(
            [satt_head_forward(h, x, group.alpha) for h in group_heads(group)], axis=0))
        assert_allclose(rep, expected.data, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("heads, dim", [(1, 1), (1, 5), (3, 4), (4, 16)])
    def test_init_draws_the_bits_of_successive_heads(self, heads, dim):
        """One H x D draw gives what H single-head draws gave, and leaves the generator
        where they left it, so the classifier and every later group draw the same too."""
        gen_group, gen_heads = rng(5), rng(5)
        group = AttentionGroupParams.init("rgb", dim, heads, 1.0, gen_group)
        single = [SattHeadParams.init(dim, gen_heads) for _ in range(heads)]
        assert_same_bits(group.w.data, np.stack([h.w.data for h in single]))
        assert_same_bits(group.a.data, np.stack([h.a.data for h in single])[:, None])
        assert_same_bits(group.b.data, np.stack([h.b.data for h in single])[:, None])
        assert_same_bits(gen_group.normal(size=3), gen_heads.normal(size=3))

    def test_output_dim_counts_heads(self):
        """A group's head count and dim are its w's shape; its representation is H*D wide."""
        gen = rng(42)
        group = AttentionGroupParams.init("rgb", 6, 3, 1.0, gen)
        assert group.w.data.shape == (3, 6)
        net = SattNetParams.init([group], 2, gen)
        assert net.modalities == [("rgb", 6)] and net.classifier_w.data.shape == (18, 2)
        assert len(net.checkpoint_arrays()) == 3 * 3 + 2
        out = satt_representations(net, net.prepare([{"rgb": rng(1).normal(size=(4, 6))}]))
        assert out.data.shape == (1, 18)
        assert abs(np.linalg.norm(out.data) - 1.0) <= 1e-9

    def test_config_validation(self, refused):
        """build_model bounds a group's head count, sharpness and feature dim."""
        assert SattNetParams.check_kwargs({"num_heads": MAX_NUM_HEADS, "alpha": 1.0}) is None
        for bad in (0, MAX_NUM_HEADS + 1, 10**9):
            err = refused("satt", [("rgb", 4)], 2, {"num_heads": bad, "alpha": 1.0})
            assert f"num_heads must lie in [1, {MAX_NUM_HEADS}], got {bad}" in err
        err = refused("satt", [("rgb", 4)], 2, {"num_heads": 4, "alpha": 0.0})
        assert "alpha must lie in (0, inf), got 0.0" in err
        with pytest.raises(ConfigError, match=r"alpha must lie in \(0, inf\), got inf"):
            SattNetParams.check_kwargs({"num_heads": 4, "alpha": float("inf")})
        assert "[('rgb', 0)]" in refused("satt", [("rgb", 0)], 2, {"num_heads": 4, "alpha": 1.0})


class TestSattNet:
    def make_net(self, gen, num_classes=3):
        groups = [AttentionGroupParams.init("rgb", feature_dim=4, num_heads=2, alpha=1.0, gen=gen),
                  AttentionGroupParams.init("flow", feature_dim=3, num_heads=1, alpha=1.0, gen=gen)]
        return SattNetParams.init(groups, num_classes, gen)

    def seqs(self, gen):
        return {"rgb": Value(gen.normal(size=(6, 4))),
                "flow": Value(gen.normal(size=(6, 3)))}

    def test_logit_shape_and_determinism(self):
        gen = rng(42)
        net = self.make_net(gen)
        seqs = self.seqs(rng(1))
        out = satt_net_forward(net, seqs)
        assert out.data.shape == (3,)
        assert_array_equal(out.data, satt_net_forward(net, seqs).data)

    def test_missing_modality_rejected(self):
        net = self.make_net(rng(42))
        with pytest.raises(ShapeError):
            satt_net_forward(net, {"rgb": Value(np.ones((4, 4)))})

    def test_per_modality_permutation_invariance(self):
        """Independently shuffling each modality's frames keeps the logits."""
        gen = rng(42)
        net = self.make_net(gen)
        x_rgb, x_flow = gen.normal(size=(8, 4)), gen.normal(size=(8, 3))
        base = satt_net_forward(net, {"rgb": Value(x_rgb), "flow": Value(x_flow)}).data
        for _ in range(10):
            shuffled = {"rgb": Value(x_rgb[gen.permutation(8)]),
                        "flow": Value(x_flow[gen.permutation(8)])}
            assert_array_equal(satt_net_forward(net, shuffled).data, base)

    def test_parameter_names_unique_and_complete(self):
        """Three trainable leaves per group; the checkpoint names three arrays per head."""
        net = self.make_net(rng(42))
        assert [n for n, _ in net.parameters()] == [
            f"group.{m}.{f}" for m in ("rgb", "flow") for f in ("w", "a", "b")] + [
            "classifier.w", "classifier.b"]
        names = [n for n, _ in net.checkpoint_arrays()]
        assert len(names) == len(set(names))
        assert len(names) == (2 + 1) * 3 + 2  # three scalars per head plus classifier
        assert "group.rgb.head0.w" in names and "classifier.b" in names

    def test_classifier_bias_starts_at_zero(self):
        net = self.make_net(rng(42))
        assert_array_equal(net.classifier_b.data, np.zeros(3))
        assert net.classifier_w.data.shape == (2 * 4 + 1 * 3, 3)

    def test_init_validation(self, refused):
        """No modality, one class or a modality named twice: build_model refuses the net."""
        kwargs = {"num_heads": 4, "alpha": 1.0}
        assert "modalities" in refused("satt", [], 3, kwargs)
        assert "num_classes" in refused("satt", [("rgb", 4)], 1, kwargs)
        assert "distinct names" in refused("satt", [("rgb", 4), ("rgb", 4)], 3, kwargs)

    def test_gradients_match_finite_differences(self):
        gen = rng(42)
        net = self.make_net(gen)
        seqs = self.seqs(rng(7))
        f = lambda: ad.cross_entropy(ad.reshape(satt_net_forward(net, seqs), (1, 3)), [1])
        report = fd_check(f, net.parameters())
        assert report.passed, report.summary()

    def test_scale_gradient_vanishes_at_zero_shift(self):
        """With b=0 the unit-normalized head is scale-invariant, so da = 0."""
        gen = rng(42)
        params = make_head(gen, 4)
        cot = Value(gen.normal(size=4))
        backward(ad.sum_all(ad.mul(satt_head_forward(params, Value(gen.normal(size=(5, 4))), 1.0),
                                   cot)))
        assert abs(float(params.a.grad)) <= 1e-12
        assert np.abs(params.b.grad).max() > 1e-3

    def test_training_signal_reaches_every_parameter(self):
        """Away from the b=0 symmetry point, every parameter gets a gradient."""
        gen = rng(42)
        net = self.make_net(gen)
        for g in net.groups:
            for i in range(len(g.w.data)):
                g.b.data[i] = gen.normal()
        seqs = self.seqs(rng(3))
        backward(ad.cross_entropy(ad.reshape(satt_net_forward(net, seqs), (1, 3)), [0]))
        for name, p in net.parameters():
            # a group leaf's row i is head i's parameter
            rows = p.grad if name.startswith("group.") else p.grad.reshape(1, -1)
            assert np.all(np.abs(rows).max(axis=-1) > 0.0), name


def net_oracle(net, sequences):
    """Plain-numpy logits for one video: heads, groups, classifier."""
    reps = []
    for g in net.groups:
        x = sequences[g.modality]
        heads = [head_oracle(x, g.w.data[i], float(g.a.data[i, 0]), float(g.b.data[i, 0]),
                             g.alpha)[0] for i in range(len(g.w.data))]
        v = np.concatenate(heads)
        reps.append(v / max(np.linalg.norm(v), 1e-12))
    return np.concatenate(reps) @ net.classifier_w.data + net.classifier_b.data


class TestBatchedPath:
    @staticmethod
    def make_net(gen):
        groups = [AttentionGroupParams.init("rgb", feature_dim=4, num_heads=3, alpha=1.5, gen=gen),
                  AttentionGroupParams.init("flow", feature_dim=3, num_heads=2, alpha=0.7, gen=gen)]
        net = SattNetParams.init(groups, 5, gen)
        for g in net.groups:
            for i in range(len(g.w.data)):
                g.a.data[i] = gen.uniform(0.5, 2.0)
                g.b.data[i] = gen.normal()
        net.classifier_b.data[...] = gen.normal(size=5)
        return net

    def ragged_batch(self, gen, n=9):
        """Videos whose per-modality frame counts repeat out of order."""
        batch = []
        for _ in range(n):
            t_rgb, t_flow = int(gen.choice([3, 6])), int(gen.choice([4, 7]))
            batch.append({"rgb": gen.normal(size=(t_rgb, 4)), "flow": gen.normal(size=(t_flow, 3))})
        return batch

    def test_ragged_representations_equal_per_video_bitwise(self):
        """Grouping by frame counts changes no bit of any video's representation."""
        gen = rng(42)
        net = self.make_net(gen)
        batch = self.ragged_batch(gen)
        assert len({(s["rgb"].shape[0], s["flow"].shape[0]) for s in batch}) > 1
        reps = satt_representations(net, net.prepare(batch)).data
        for i, s in enumerate(batch):
            single = satt_representations(net, net.prepare([s])).data
            assert_array_equal(reps[i], single[0])

    def test_group_rows_match_numpy_oracle_bitwise(self):
        gen = rng(7)
        net = self.make_net(gen)
        batch = self.ragged_batch(gen, n=5)
        reps = satt_representations(net, net.prepare(batch)).data
        for i, s in enumerate(batch):
            expected = np.concatenate([group_oracle_bitwise(s[g.modality], g)
                                       for g in net.groups])
            assert_array_equal(reps[i], expected)

    def test_logits_match_numpy_oracle(self):
        gen = rng(42)
        for _ in range(5):
            net = self.make_net(gen)
            batch = self.ragged_batch(gen)
            logits = satt_forward_batch(net, net.prepare(batch)).data
            assert logits.shape == (len(batch), 5)
            for i, s in enumerate(batch):
                assert_allclose(logits[i], net_oracle(net, s), rtol=1e-12, atol=1e-12)

    def test_single_video_is_a_batch_of_one(self):
        gen = rng(3)
        net = self.make_net(gen)
        s = self.ragged_batch(gen, n=1)[0]
        assert_array_equal(satt_net_forward(net, {m: Value(x) for m, x in s.items()}).data,
                           satt_forward_batch(net, net.prepare([s])).data[0])

    def test_ragged_batch_gradients_match_finite_differences(self):
        """The regrouped rows route their gradients back to the right videos."""
        gen = rng(11)
        net = self.make_net(gen)
        batch = net.prepare(self.ragged_batch(gen, n=5))
        labels = [int(v) for v in gen.integers(0, 5, size=5)]
        f = lambda: ad.cross_entropy(satt_forward_batch(net, batch), labels)
        report = fd_check(f, net.parameters())
        assert report.passed, report.summary()

    def test_missing_modality_or_bad_dim_rejected(self):
        gen = rng(42)
        net = self.make_net(gen)
        good = self.ragged_batch(gen, n=1)[0]
        with pytest.raises(ShapeError):
            net.prepare([good, {"rgb": good["rgb"]}])
        with pytest.raises(ShapeError):
            net.prepare([{"rgb": good["rgb"], "flow": np.ones((4, 5))}])
        with pytest.raises(ShapeError):
            net.prepare([])


# The attention ops as they were when each one kept frame-order invariance
# itself, summing over time in sorted order: the oracle the canonical frame
# order replaced.  satt's numbers must stay within rounding of theirs.


def _ref_ordersum(a: np.ndarray, axis: int) -> np.ndarray:
    return np.sum(np.sort(a, axis=axis), axis=axis)


def ref_row_dot(x, w) -> Value:
    out = np.sum(x.data[:, None, :, :] * w.data[None, :, None, :], axis=-1)

    def grad_fn(g):
        return (np.matmul(g.transpose(0, 2, 1), w.data) if x.requires_grad else None,
                np.matmul(g, x.data).sum(axis=0) if w.requires_grad else None)

    return ad._node(out, (x, w), grad_fn, "row_dot")


def ref_weighted_row_sum(weights, x) -> Value:
    wd, xd = weights.data, x.data
    out = _ref_ordersum(xd[:, None, :, :] * wd[..., None], axis=-2)

    def grad_fn(g):
        return (np.matmul(g, xd.transpose(0, 2, 1)) if weights.requires_grad else None,
                np.matmul(wd.transpose(0, 2, 1), g) if x.requires_grad else None)

    return ad._node(out, (weights, x), grad_fn, "weighted_row_sum")


def ref_softmax_sharp(logits, alpha: float) -> Value:
    z = alpha * (logits.data - logits.data.max(axis=-1, keepdims=True))
    e = np.exp(z)
    y = e / _ref_ordersum(e, axis=-1)[..., None]

    def grad_fn(g):
        return (alpha * y * (g - np.sum(g * y, axis=-1, keepdims=True)),)

    return ad._node(y, (logits,), grad_fn, "softmax_sharp")


REFERENCE_OPS = {"row_dot": ref_row_dot, "weighted_row_sum": ref_weighted_row_sum,
                 "softmax_sharp": ref_softmax_sharp}


def assert_same_bits(a, b):
    """Equal shapes and bytes: tells -0.0 from +0.0."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def with_signed_zero_ties(gen, t, d):
    """Frames [T x d] where frames 0-1 and 2-3 differ only in the sign of a zero,
    and frame 4 repeats frame 5 exactly."""
    x = gen.normal(size=(t, d))
    x[1], x[3], x[4] = x[0], x[2], x[5]
    x[0, 0], x[1, 0] = 0.0, -0.0
    x[2, d - 1], x[3, d - 1] = -0.0, 0.0
    return x


class TestCanonicalFrameOrder:
    """Shuffling every video's frames changes no bit of logits or gradients."""

    def ragged(self, gen, n=21):
        """Two modalities, frame counts repeating out of order, tied frames in each."""
        return [{"rgb": with_signed_zero_ties(gen, int(gen.choice([6, 9])), 4),
                 "flow": with_signed_zero_ties(gen, int(gen.choice([7, 8])), 3)}
                for _ in range(n)]

    @staticmethod
    def shuffled(gen, batch):
        return [{m: x[gen.permutation(len(x))] for m, x in s.items()} for s in batch]

    @staticmethod
    def step(net, batch, labels, mode):
        """Logits and every parameter gradient of one cross-entropy step."""
        ad.zero_grads(p for _, p in net.parameters())
        logits = net.forward_batch(net.prepare(batch), mode)
        backward(ad.cross_entropy(logits, labels))
        return [logits.data.copy()] + [p.grad.copy() for _, p in net.parameters()]

    def test_frame_order_sorts_any_permutation_into_the_same_bytes(self):
        """A sort by value would tie -0.0 with +0.0 and keep such frames in input order."""
        gen = rng(5)
        x = np.stack([with_signed_zero_ties(gen, 8, 3) for _ in range(4)])
        base = np.take_along_axis(x, _frame_order(x)[..., None], axis=1)
        for _ in range(30):
            perm = np.stack([gen.permutation(8) for _ in range(4)])
            xp = np.take_along_axis(x, perm[..., None], axis=1)
            assert_same_bits(np.take_along_axis(xp, _frame_order(xp)[..., None], axis=1), base)

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_batch_logits_and_gradients_bitwise(self, mode):
        gen = rng(17)
        net = TestBatchedPath.make_net(gen)
        batch = self.ragged(gen)
        labels = [int(v) for v in gen.integers(0, 5, size=len(batch))]
        base = self.step(net, batch, labels, mode)
        for _ in range(8):
            for got, want in zip(self.step(net, self.shuffled(gen, batch), labels, mode), base):
                assert_same_bits(got, want)
        assert_same_bits(satt_forward_batch(net, net.prepare(batch)).data, base[0])

    def test_evaluate_scores_bitwise(self):
        gen = rng(19)
        net = TestBatchedPath.make_net(gen)

        def samples(batch):
            return [VideoSample(f"v{i}", 0, [FeatureSequence(m, x) for m, x in s.items()])
                    for i, s in enumerate(batch)]

        batch = self.ragged(gen, n=40)
        base = evaluate("satt", net, samples(batch))
        for _ in range(4):
            table = evaluate("satt", net, samples(self.shuffled(gen, batch)))
            assert list(table.rows) == list(base.rows)
            for vid, row in base.rows.items():
                assert_same_bits(table.rows[vid], row)

    def test_head_output_and_gradients_bitwise(self):
        gen = rng(23)
        params = make_head(gen, 4)
        params.b.data[...] = 0.4
        x = with_signed_zero_ties(gen, 11, 4)
        cot = Value(gen.normal(size=4))

        def run(frames):
            ad.zero_grads([params.w, params.a, params.b])
            xv = Value(frames, requires_grad=True)
            out = satt_head_forward(params, xv, 1.7)
            backward(ad.sum_all(ad.mul(out, cot)))
            return out.data.copy(), [p.grad.copy() for p in (params.w, params.a, params.b)], xv.grad

        out, grads, gx = run(x)
        for _ in range(20):
            perm = gen.permutation(11)
            p_out, p_grads, p_gx = run(x[perm])
            assert_same_bits(p_out, out)
            for got, want in zip(p_grads, grads):
                assert_same_bits(got, want)
            # each frame's gradient travels with it
            assert_allclose(p_gx, gx[perm], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_matches_sorted_sum_ops_within_rounding(self, mode, monkeypatch):
        gen = rng(29)
        net = TestBatchedPath.make_net(gen)
        batch = self.ragged(gen)
        labels = [int(v) for v in gen.integers(0, 5, size=len(batch))]
        new = self.step(net, batch, labels, mode)
        for name, ref in REFERENCE_OPS.items():
            monkeypatch.setattr(ad, name, ref)
        for got, want in zip(new, self.step(net, batch, labels, mode)):
            assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_sorts_once_per_modality_and_length_and_never_per_op(self, monkeypatch):
        """Preparing a train step's batch and evaluate's chunk each run one argsort of
        frame keys per modality and frame count, np.sort and np.lexsort never."""
        gen = rng(31)
        net = TestBatchedPath.make_net(gen)
        batch = self.ragged(gen, n=9)
        lengths = len({(m, len(x)) for s in batch for m, x in s.items()})
        # fewer sorts than one per length block and modality
        assert lengths < 2 * len({(len(s["rgb"]), len(s["flow"])) for s in batch})
        calls = []
        argsort = np.argsort

        def counted(a, *args, **kwargs):
            if np.asarray(a).dtype.kind == "V":  # frame keys, not satt's block reordering
                calls.append(1)
            return argsort(a, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("np.sort or np.lexsort called on the satt path")

        monkeypatch.setattr(np, "argsort", counted)
        monkeypatch.setattr(np, "sort", refuse)
        monkeypatch.setattr(np, "lexsort", refuse)
        self.step(net, batch, [0] * len(batch), "train")
        assert len(calls) == lengths
        samples = [VideoSample(f"v{i}", 0, [FeatureSequence(m, x) for m, x in s.items()])
                   for i, s in enumerate(batch)]
        evaluate("satt", net, samples)  # nine videos: one chunk, the same frame counts
        assert len(calls) == 2 * lengths


SPECIALS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0, 5e-324, -2.5])


@pytest.mark.parametrize("b, t, d", [(3, 9, 4), (2, 12, 1), (4, 1, 5), (1, 1, 1), (2, 30, 16)])
def test_frame_order_equals_lexsort_of_the_bit_patterns(b, t, d):
    """The byte-key argsort reproduces np.lexsort over the channels' bits, ties included."""
    gen = rng(b, t, d)
    for trial in range(40):
        x = gen.choice(SPECIALS, size=(b, t, d))
        if trial % 2:
            x[:, ::2] = x[:, :1]  # exact repeats of the first frame
        if trial % 3 == 0:
            x = np.round(gen.normal(size=(b, t, d)), 1)  # ties only through rounding
        want = np.lexsort(x.view(np.uint64).transpose(2, 0, 1), axis=-1)
        assert_array_equal(_frame_order(x), want)


def per_block_logits(params, batch):
    """Logits [B x K] the way the batched path ran before inputs were prepared.

    Every forward read the frames through ``modality_frames``, stacked each
    length block's frames per modality and sorted the stack with one
    ``_frame_order`` call, then ran the groups and the classifier.
    """
    frames = [modality_frames(batch, m, d) for m, d in params.modalities]
    blocks = {}
    for i, counts in enumerate(zip(*[[len(x) for x in xs] for xs in frames])):
        blocks.setdefault(counts, []).append(i)
    reps = []
    for rows in blocks.values():
        groups = []
        for g, xs in zip(params.groups, frames):
            x = np.stack([xs[i] for i in rows])
            x = x[np.arange(len(rows))[:, None], _frame_order(x)]
            groups.append(_group_block(Value(x), g))
        reps.append(ad.concat(groups, axis=1))
    rep = reps[0]
    if len(reps) > 1:
        order = [i for rows in blocks.values() for i in rows]
        rep = ad.take_rows(ad.concat(reps, axis=0), np.argsort(order))
    return ad.affine(rep, params.classifier_w, params.classifier_b)


class TestPreparedInputs:
    """Orders computed once per video give the per-block path's bits."""

    @staticmethod
    def ragged(gen, n):
        """Frame counts mixed per modality, T = 1 among them, some videos repeated."""
        batch = []
        for _ in range(n):
            if batch and gen.uniform() < 0.2:
                batch.append(batch[int(gen.integers(len(batch)))])
                continue
            batch.append({"rgb": with_signed_zero_ties(gen, int(gen.choice([6, 9])), 4)
                          if gen.uniform() < 0.7 else gen.normal(size=(1, 4)),
                          "flow": gen.normal(size=(int(gen.choice([1, 7, 8])), 3))})
        return batch

    @staticmethod
    def grads(net, logits, labels):
        ad.zero_grads(p for _, p in net.parameters())
        backward(ad.cross_entropy(logits, labels))
        return [logits.data.copy()] + [p.grad.copy() for _, p in net.parameters()]

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_logits_and_gradients_equal_the_per_block_path_bitwise(self, mode):
        gen = rng(37)
        net = TestBatchedPath.make_net(gen)
        for b in range(1, 18):
            batch = self.ragged(gen, b)
            labels = [int(v) for v in gen.integers(0, 5, size=b)]
            want = self.grads(net, per_block_logits(net, batch), labels)
            shuffled = [{m: x[gen.permutation(len(x))] for m, x in s.items()} for s in batch]
            for frames in (batch, shuffled):
                got = self.grads(net, net.forward_batch(net.prepare(frames), mode), labels)
                for g, w in zip(got, want):
                    assert_same_bits(g, w)

    @pytest.mark.parametrize("t, d", [(1, 1), (1, 4), (6, 4), (30, 16)])
    def test_chunked_orders_equal_one_order_of_the_whole_group(self, t, d, monkeypatch):
        gen = rng(t, d)
        xs = list(gen.choice(SPECIALS, size=(13, t, d)))
        want = _frame_order(np.stack(xs))
        for chunk in (1, t * d - 1, t * d, 2 * t * d + 1, 5 * t * d, 10 ** 9):
            monkeypatch.setattr(satt, "ORDER_CHUNK", chunk)
            got = _frame_orders(xs)
            assert len(got) == len(xs)
            assert_array_equal(np.stack(got), want)

    def test_mixed_lengths_are_ordered_per_length_group(self, monkeypatch):
        gen = rng(41)
        xs = [gen.choice(SPECIALS, size=(int(t), 3)) for t in gen.choice([1, 2, 5], size=17)]
        for chunk in (1, 7, 10 ** 9):
            monkeypatch.setattr(satt, "ORDER_CHUNK", chunk)
            for x, order in zip(xs, _frame_orders(xs)):
                assert_array_equal(order, _frame_order(x[None])[0])
