"""Unit tests for the attention pooling head and network."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from seqcls import autodiff as ad
from seqcls.autodiff import Value, backward, fd_check, rng
from seqcls.errors import ConfigError, ShapeError
from seqcls.satt import (
    AttentionGroupConfig,
    AttentionGroupParams,
    SattHeadParams,
    SattNetParams,
    attention_group_forward,
    satt_forward_batch,
    satt_head_forward,
    satt_net_forward,
    satt_representations,
)


def head_oracle(x, w, a, b, alpha):
    """Plain-numpy reimplementation of one attention head."""
    s = x @ w
    e = np.exp(alpha * (s - s.max()))
    lam = e / e.sum()
    v = (lam @ x) * a + b
    return v / max(np.linalg.norm(v), 1e-12), lam


def make_head(gen, dim):
    return SattHeadParams.init(dim, gen)


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
        f = lambda: ad.sum_all(satt_head_forward(params, x, 1.5) * cot)
        report = fd_check(f, [("x", x), ("w", params.w), ("a", params.a), ("b", params.b)])
        assert report.passed, report.summary()


class TestAttentionGroup:
    def test_equals_concat_then_normalize_oracle(self):
        """A two-head group is exactly concat of head outputs, re-normalized."""
        gen = rng(42)
        cfg = AttentionGroupConfig(modality="rgb", feature_dim=5, num_heads=2, alpha=1.3)
        group = AttentionGroupParams.init(cfg, gen)
        x = Value(gen.normal(size=(7, 5)))
        expected = ad.l2_normalize(ad.concat(
            [satt_head_forward(h, x, cfg.alpha) for h in group.heads], axis=0))
        assert_array_equal(attention_group_forward(group, x).data, expected.data)

    def test_output_dim_counts_heads(self):
        cfg = AttentionGroupConfig(modality="rgb", feature_dim=6, num_heads=3)
        gen = rng(42)
        group = AttentionGroupParams.init(cfg, gen)
        assert group.output_dim == 18
        out = attention_group_forward(group, Value(rng(1).normal(size=(4, 6))))
        assert out.data.shape == (18,)
        assert abs(np.linalg.norm(out.data) - 1.0) <= 1e-9

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AttentionGroupConfig(modality="rgb", feature_dim=4, num_heads=0)
        with pytest.raises(ConfigError):
            AttentionGroupConfig(modality="rgb", feature_dim=4, alpha=0.0)
        with pytest.raises(ConfigError):
            AttentionGroupConfig(modality="rgb", feature_dim=0)


class TestSattNet:
    def make_net(self, gen, num_classes=3):
        configs = [AttentionGroupConfig(modality="rgb", feature_dim=4, num_heads=2),
                   AttentionGroupConfig(modality="flow", feature_dim=3, num_heads=1)]
        return SattNetParams.init(configs, num_classes, gen)

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
        net = self.make_net(rng(42))
        named = net.parameters()
        names = [n for n, _ in named]
        assert len(names) == len(set(names))
        assert len(names) == (2 + 1) * 3 + 2  # three scalars per head plus classifier
        assert "group.rgb.head0.w" in names and "classifier.b" in names

    def test_classifier_bias_starts_at_zero(self):
        net = self.make_net(rng(42))
        assert_array_equal(net.classifier_b.data, np.zeros(3))
        assert net.classifier_w.data.shape == (2 * 4 + 1 * 3, 3)

    def test_init_validation(self):
        gen = rng(42)
        cfg = AttentionGroupConfig(modality="rgb", feature_dim=4)
        with pytest.raises(ConfigError):
            SattNetParams.init([], 3, gen)
        with pytest.raises(ConfigError):
            SattNetParams.init([cfg], 1, gen)
        with pytest.raises(ConfigError):
            SattNetParams.init([cfg, cfg], 3, gen)

    def test_gradients_match_finite_differences(self):
        gen = rng(42)
        net = self.make_net(gen)
        seqs = self.seqs(rng(7))
        f = lambda: ad.cross_entropy(ad.stack([satt_net_forward(net, seqs)]), [1])
        report = fd_check(f, net.parameters())
        assert report.passed, report.summary()

    def test_scale_gradient_vanishes_at_zero_shift(self):
        """With b=0 the unit-normalized head is scale-invariant, so da = 0."""
        gen = rng(42)
        params = make_head(gen, 4)
        cot = Value(gen.normal(size=4))
        backward(ad.sum_all(satt_head_forward(params, Value(gen.normal(size=(5, 4))), 1.0) * cot))
        assert abs(float(params.a.grad)) <= 1e-12
        assert np.abs(params.b.grad).max() > 1e-3

    def test_training_signal_reaches_every_parameter(self):
        """Away from the b=0 symmetry point, every parameter gets a gradient."""
        gen = rng(42)
        net = self.make_net(gen)
        for g in net.groups:
            for h in g.heads:
                h.b.data[...] = gen.normal()
        seqs = self.seqs(rng(3))
        backward(ad.cross_entropy(ad.stack([satt_net_forward(net, seqs)]), [0]))
        for name, p in net.parameters():
            assert np.abs(p.grad).max() > 0.0, name


def net_oracle(net, sequences):
    """Plain-numpy logits for one video: heads, groups, classifier."""
    reps = []
    for g in net.groups:
        x = sequences[g.config.modality]
        heads = [head_oracle(x, h.w.data, float(h.a.data), float(h.b.data), g.config.alpha)[0]
                 for h in g.heads]
        v = np.concatenate(heads)
        reps.append(v / max(np.linalg.norm(v), 1e-12))
    return np.concatenate(reps) @ net.classifier_w.data + net.classifier_b.data


class TestBatchedPath:
    def make_net(self, gen):
        configs = [AttentionGroupConfig(modality="rgb", feature_dim=4, num_heads=3, alpha=1.5),
                   AttentionGroupConfig(modality="flow", feature_dim=3, num_heads=2, alpha=0.7)]
        net = SattNetParams.init(configs, 5, gen)
        for g in net.groups:
            for h in g.heads:
                h.a.data[...] = gen.uniform(0.5, 2.0)
                h.b.data[...] = gen.normal()
        net.classifier_b.data[...] = gen.normal(size=5)
        return net

    def ragged_batch(self, gen, n=9):
        """Videos whose per-modality frame counts repeat out of order."""
        batch = []
        for _ in range(n):
            t_rgb, t_flow = int(gen.choice([3, 6])), int(gen.choice([4, 7]))
            batch.append({"rgb": gen.normal(size=(t_rgb, 4)), "flow": gen.normal(size=(t_flow, 3))})
        return batch

    @staticmethod
    def values(sequences):
        return {m: Value(x) for m, x in sequences.items()}

    def test_ragged_representations_equal_per_video_bitwise(self):
        """Grouping by frame counts changes no bit of any video's representation."""
        gen = rng(42)
        net = self.make_net(gen)
        batch = self.ragged_batch(gen)
        assert len({(s["rgb"].shape[0], s["flow"].shape[0]) for s in batch}) > 1
        reps = satt_representations(net, [self.values(s) for s in batch]).data
        for i, s in enumerate(batch):
            single = satt_representations(net, [self.values(s)]).data
            assert_array_equal(reps[i], single[0])

    def test_group_rows_match_attention_group_forward_bitwise(self):
        gen = rng(7)
        net = self.make_net(gen)
        batch = self.ragged_batch(gen, n=5)
        reps = satt_representations(net, [self.values(s) for s in batch]).data
        for i, s in enumerate(batch):
            expected = np.concatenate([attention_group_forward(g, Value(s[g.config.modality])).data
                                       for g in net.groups])
            assert_array_equal(reps[i], expected)

    def test_logits_match_numpy_oracle(self):
        gen = rng(42)
        for _ in range(5):
            net = self.make_net(gen)
            batch = self.ragged_batch(gen)
            logits = satt_forward_batch(net, [self.values(s) for s in batch]).data
            assert logits.shape == (len(batch), 5)
            for i, s in enumerate(batch):
                assert_allclose(logits[i], net_oracle(net, s), rtol=1e-12, atol=1e-12)

    def test_single_video_is_a_batch_of_one(self):
        gen = rng(3)
        net = self.make_net(gen)
        s = self.values(self.ragged_batch(gen, n=1)[0])
        assert_array_equal(satt_net_forward(net, s).data, satt_forward_batch(net, [s]).data[0])

    def test_ragged_batch_gradients_match_finite_differences(self):
        """The regrouped rows route their gradients back to the right videos."""
        gen = rng(11)
        net = self.make_net(gen)
        batch = [self.values(s) for s in self.ragged_batch(gen, n=5)]
        labels = [int(v) for v in gen.integers(0, 5, size=5)]
        f = lambda: ad.cross_entropy(satt_forward_batch(net, batch), labels)
        report = fd_check(f, net.parameters())
        assert report.passed, report.summary()

    def test_missing_modality_or_bad_dim_rejected(self):
        gen = rng(42)
        net = self.make_net(gen)
        good = self.values(self.ragged_batch(gen, n=1)[0])
        with pytest.raises(ShapeError):
            satt_forward_batch(net, [good, {"rgb": good["rgb"]}])
        with pytest.raises(ShapeError):
            satt_forward_batch(net, [{"rgb": good["rgb"], "flow": Value(np.ones((4, 5)))}])
        with pytest.raises(ShapeError):
            satt_forward_batch(net, [])
