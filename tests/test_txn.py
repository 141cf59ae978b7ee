"""Unit tests for the temporal separable-convolution head."""

from __future__ import annotations

import copy
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from seqcls import autodiff as ad
from seqcls.autodiff import Value, backward, rng, zero_grads
from seqcls.errors import ShapeError
from seqcls.gradcheck import run_cases
from seqcls.training import TrainConfig, build_model, model_kwargs
from seqcls.txn import (
    MAX_BLOCK_CHANNELS,
    MAX_KERNEL_SIZE,
    MAX_NUM_BLOCKS,
    MAX_PAD_LEN,
    SepConvParams,
    TxnBlockParams,
    TxnParams,
    TxnStreamConfig,
    TxnStreamParams,
    named_parameters,
    sep_conv_forward,
    txn_block_forward,
    txn_forward,
    txn_forward_batch,
    txn_stream_forward,
)


def dense_conv_oracle(x: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """Full temporal convolution with kernel dense[k, c_in, c_out], zero padded."""
    t = x.shape[0]
    k = dense.shape[0]
    p = (k - 1) // 2
    out = np.zeros((t, dense.shape[2]))
    for ti in range(t):
        for j in range(k):
            src = ti + j - p
            if 0 <= src < t:
                out[ti] += x[src] @ dense[j]
    return out


def small_config(**overrides):
    base = dict(modality="rgb", feature_dim=4, pad_len=8, num_segments=4,
                kernel_size=3, block_channels=5, num_blocks=1)
    base.update(overrides)
    return TxnStreamConfig(**base)


def small_kwargs(**overrides):
    """The model_kwargs of small_config(**overrides)."""
    return {key: getattr(small_config(**overrides), key) for key in TxnParams.CONFIG_FIELDS}


def zero_block(block: TxnBlockParams) -> None:
    """Zero each layer's convolutions and BN shift so the block is an identity."""
    for layer in block.layers:
        layer.depthwise.data[...] = 0.0
        layer.pointwise_w.data[...] = 0.0
        layer.pointwise_b.data[...] = 0.0
        layer.bn_beta.data[...] = 0.0


class TestSeparableConv:
    def test_depthwise_then_pointwise_equals_dense_factorized(self):
        """The separable pair equals one dense conv with kernel dw[j,i]*pw[i,o]."""
        gen = rng(42)
        for _ in range(30):
            t, c, k = int(gen.integers(1, 11)), int(gen.integers(1, 5)), int(gen.choice([1, 3, 5]))
            x = gen.normal(size=(t, c))
            dw = gen.normal(size=(k, c))
            pw = gen.normal(size=(c, c))
            dense = dw[:, :, None] * pw[None, :, :]
            got = ad.pointwise_conv1d(ad.depthwise_conv1d(Value(x), Value(dw)),
                                      Value(pw), Value(np.zeros(c))).data
            assert_allclose(got, dense_conv_oracle(x, dense), atol=1e-10, rtol=0)

    def test_layer_is_relu_bn_pointwise_depthwise(self):
        """sep_conv_forward composes the four primitives in order, bit for bit."""
        gen = rng(42)
        params = SepConvParams.init(channels=4, kernel_size=3, gen=gen)
        x = Value(gen.normal(size=(6, 4)))
        state = copy.deepcopy(params.bn_state)
        h = ad.depthwise_conv1d(x, params.depthwise)
        h = ad.pointwise_conv1d(h, params.pointwise_w, params.pointwise_b)
        h = ad.batch_norm(h, params.bn_gamma, params.bn_beta, state, mode="train")
        expected = ad.relu(h).data
        assert_array_equal(sep_conv_forward(params, x, "train").data, expected)

    def test_train_mode_advances_running_stats(self):
        gen = rng(42)
        params = SepConvParams.init(channels=3, kernel_size=3, gen=gen)
        before = copy.deepcopy(params.bn_state)
        sep_conv_forward(params, Value(gen.normal(size=(6, 3))), "train")
        assert not np.array_equal(params.bn_state.mean, before.mean)
        sep_conv_forward(params, Value(gen.normal(size=(6, 3))), "infer")
        after_infer = copy.deepcopy(params.bn_state)
        assert_array_equal(after_infer.mean, params.bn_state.mean)


class TestTxnBlock:
    def test_zeroed_block_is_identity(self):
        """Zero convs and zero BN shift reduce the residual block to x + 0."""
        gen = rng(42)
        block = TxnBlockParams.init(channels=4, kernel_size=3, gen=gen)
        zero_block(block)
        x = gen.normal(size=(6, 4))
        for mode in ("train", "infer"):
            assert_array_equal(txn_block_forward(block, Value(x), mode).data, x)

    def test_residual_shortcut_adds_input(self):
        """Block output minus the conv branch equals the input exactly."""
        gen = rng(42)
        block = TxnBlockParams.init(channels=4, kernel_size=3, gen=gen)
        x = Value(gen.normal(size=(6, 4)))
        states = [copy.deepcopy(layer.bn_state) for layer in block.layers]
        h = x
        for layer, st in zip(block.layers, states):
            hh = ad.depthwise_conv1d(h, layer.depthwise)
            hh = ad.pointwise_conv1d(hh, layer.pointwise_w, layer.pointwise_b)
            hh = ad.batch_norm(hh, layer.bn_gamma, layer.bn_beta, st, mode="infer")
            h = ad.relu(hh)
        expected = x.data + h.data
        assert_array_equal(txn_block_forward(block, x, "infer").data, expected)


class TestTxnStream:
    @staticmethod
    def batch(xs, modality="rgb"):
        """The clips TxnParams.prepare hands a small_config stream for videos xs."""
        net = TxnParams.init([small_config()], 3, rng(0))
        return [clips[0] for clips in net.prepare([{modality: x} for x in xs])]

    def test_output_shapes(self):
        gen = rng(42)
        stream = TxnStreamParams.init(small_config(), gen)
        out = txn_stream_forward(stream, self.batch(gen.normal(size=(3, 6, 4))), "infer")
        assert out.data.shape == (3, 5)
        with pytest.raises(ShapeError):  # each video holds one sequence [T x D]
            txn_stream_forward(stream, self.batch([gen.normal(size=(2, 6, 4))]), "infer")
        with pytest.raises(ShapeError):  # prepare refuses an empty batch
            txn_stream_forward(stream, self.batch([]), "infer")

    def test_batched_infer_matches_per_sample_bitwise(self):
        """A ragged batch in infer mode equals each sample's own forward, bit for bit."""
        gen = rng(42)
        stream = TxnStreamParams.init(small_config(), gen)
        batch = self.batch([gen.normal(size=(t, 4)) for t in (3, 8, 11, 8)])
        batched = txn_stream_forward(stream, batch, "infer").data
        for i in range(len(batch)):
            single = txn_stream_forward(stream, batch[i:i + 1], "infer").data
            assert_array_equal(batched[i], single[0])

    def test_dim_mismatch_rejected(self):
        stream = TxnStreamParams.init(small_config(), rng(42))
        with pytest.raises(ShapeError):
            txn_stream_forward(stream, self.batch([np.ones((6, 5))]), "infer")
        with pytest.raises(ShapeError):
            txn_stream_forward(stream, self.batch([np.ones((6, 4))], modality="flow"), "infer")

    def test_config_validation(self, refused):
        for field, bad in (("num_segments", 9), ("num_segments", 1),  # 9 is above pad_len
                           ("kernel_size", 2), ("num_blocks", 0)):
            assert f"{field} must" in refused("txn", [("rgb", 4)], 3, small_kwargs(**{field: bad}))
        assert "[('rgb', 0)]" in refused("txn", [("rgb", 0)], 3, small_kwargs())
        # pad_len shapes no stored array, so only the bounds hold it
        assert TxnParams.check_kwargs(small_kwargs(pad_len=MAX_PAD_LEN)) is None
        for bad in (0, MAX_PAD_LEN + 1, 10**9):
            assert "pad_len must lie in" in refused("txn", [("rgb", 4)], 3, small_kwargs(pad_len=bad))

    @pytest.mark.parametrize("field, limit", [
        ("block_channels", MAX_BLOCK_CHANNELS), ("kernel_size", MAX_KERNEL_SIZE),
        ("num_blocks", MAX_NUM_BLOCKS)])
    def test_sizes_without_arrays_are_bounded(self, refused, field, limit):
        """A train config's sizes have no arrays behind them, so build_model bounds them."""
        assert TxnParams.check_kwargs(small_kwargs(**{field: limit})) is None
        for bad in (0, limit + 2, 10**9 + 1):
            err = refused("txn", [("rgb", 4)], 3, small_kwargs(**{field: bad}))
            assert re.search(f"{field} must .*lie in \\[1, {limit}\\], got {bad}", err)


class TestTxnNet:
    def make_net(self, gen, num_classes=3, **overrides):
        configs = [small_config(**overrides),
                   small_config(modality="flow", feature_dim=3, **overrides)]
        return TxnParams.init(configs, num_classes, gen)

    def seqs(self, gen, t=7):
        return {"rgb": Value(gen.normal(size=(t, 4))),
                "flow": Value(gen.normal(size=(t, 3)))}

    @staticmethod
    def prepared(net, batch):
        """The model inputs of a batch of Value sequence dicts."""
        return net.prepare([{m: v.data for m, v in seqs.items()} for seqs in batch])

    def test_zero_initialized_classifier_gives_zero_logits(self):
        """Before any training step the logits are exactly the zero bias."""
        net = self.make_net(rng(42))
        out = txn_forward(net, self.seqs(rng(1)), mode="infer")
        assert_array_equal(out.data, np.zeros(3))

    def test_zeroed_blocks_equal_no_block_oracle(self):
        """With identity blocks the net is pad, pool, entry, global max, affine."""
        gen = rng(42)
        net = self.make_net(gen)
        for s in net.streams:
            for b in s.blocks:
                zero_block(b)
        net.classifier_w.data[...] = gen.normal(size=net.classifier_w.data.shape)
        net.classifier_b.data[...] = gen.normal(size=3)
        seqs = self.seqs(rng(5))
        reps = []
        for s in net.streams:
            h = ad.zero_pad_time(seqs[s.config.modality], s.config.pad_len)
            h = ad.adaptive_max_pool1d(h, s.config.num_segments)
            h = ad.pointwise_conv1d(h, s.entry_w, s.entry_b)
            reps.append(ad.global_max_pool_time(h).data)
        expected = np.concatenate(reps) @ net.classifier_w.data + net.classifier_b.data
        for mode in ("train", "infer"):
            got = txn_forward(net, seqs, mode=mode)
            assert_allclose(got.data, expected, atol=1e-12, rtol=0)

    def test_batch_forward_matches_per_sample_in_infer(self):
        gen = rng(42)
        net = self.make_net(gen)
        batch = [self.seqs(rng(i), t=int(rng(i, 99).integers(3, 10))) for i in range(4)]
        stacked = txn_forward_batch(net, self.prepared(net, batch), mode="infer").data
        for i, seqs in enumerate(batch):
            assert_array_equal(stacked[i], txn_forward(net, seqs, mode="infer").data)

    def test_batch_train_folds_batch_stats_exactly_once(self):
        """One batched train call applies one EMA update with batch-wide stats."""
        gen = rng(42)
        net = self.make_net(gen)
        batch = [self.seqs(rng(i)) for i in range(3)]
        txn_forward_batch(net, self.prepared(net, batch), mode="train")
        for s in net.streams:
            stacked = Value(np.stack([ad.zero_pad_time(seqs[s.config.modality],
                                                       s.config.pad_len).data for seqs in batch]))
            h = ad.adaptive_max_pool1d(stacked, s.config.num_segments)
            h = ad.pointwise_conv1d(h, s.entry_w, s.entry_b)
            layer = s.blocks[0].layers[0]
            pre = ad.pointwise_conv1d(ad.depthwise_conv1d(h, layer.depthwise),
                                      layer.pointwise_w, layer.pointwise_b).data
            flat = pre.reshape(-1, pre.shape[-1])
            assert_allclose(layer.bn_state.mean, 0.1 * flat.mean(axis=0), rtol=1e-12)
            assert_allclose(layer.bn_state.var, 0.9 + 0.1 * flat.var(axis=0), rtol=1e-12)

    def test_padding_matches_per_video_zero_pad_oracle_bitwise(self):
        """The NumPy pad equals the graph path it replaced, bit for bit.

        The oracle pads each video with zero_pad_time, stacks the batch and
        runs the stream ops; frame counts fall below, at and above pad_len.
        """
        batch = [self.seqs(rng(i), t=t) for i, t in enumerate((3, 8, 12, 8, 5))]
        net, oracle = self.make_net(rng(42)), self.make_net(rng(42))
        w = rng(9).normal(size=net.classifier_w.data.shape)
        net.classifier_w.data[...] = w
        oracle.classifier_w.data[...] = w

        def oracle_logits(mode):
            reps = []
            for s in oracle.streams:
                h = Value(np.stack([ad.zero_pad_time(seqs[s.config.modality], s.config.pad_len).data
                                    for seqs in batch]))
                h = ad.adaptive_max_pool1d(h, s.config.num_segments)
                h = ad.pointwise_conv1d(h, s.entry_w, s.entry_b)
                for block in s.blocks:
                    h = txn_block_forward(block, h, mode)
                reps.append(ad.global_max_pool_time(h))
            return ad.affine(ad.concat(reps, axis=1), oracle.classifier_w, oracle.classifier_b)

        for mode in ("train", "train", "infer"):
            assert_array_equal(txn_forward_batch(net, self.prepared(net, batch), mode).data,
                               oracle_logits(mode).data)
            for (name, got), (_, expected) in zip(net.checkpoint_arrays(),
                                                  oracle.checkpoint_arrays()):
                assert_array_equal(got, expected, err_msg=name)

    def test_missing_modality_rejected(self):
        net = self.make_net(rng(42))
        with pytest.raises(ShapeError):
            txn_forward(net, {"rgb": Value(np.ones((5, 4)))})
        with pytest.raises(ShapeError):
            net.prepare([{"rgb": np.ones((5, 4))}])

    def test_parameter_and_buffer_names(self):
        """Names and their order are the checkpoint layout, so both are pinned."""
        net = self.make_net(rng(42), num_blocks=2)
        fields = ("depthwise", "pointwise_w", "pointwise_b", "bn_gamma", "bn_beta")
        layers = [f"block{b}.layer{i}" for b in range(2) for i in range(2)]
        expected, expected_buffers = [], []
        for m in ("rgb", "flow"):
            expected += [f"stream.{m}.entry_w", f"stream.{m}.entry_b"]
            expected += [f"stream.{m}.{layer}.{f}" for layer in layers for f in fields]
            expected_buffers += [f"stream.{m}.{layer}.bn.{s}" for layer in layers
                                 for s in ("mean", "var")]
        expected += ["classifier.w", "classifier.b"]
        assert [n for n, _ in net.parameters()] == expected
        assert [n for n, _ in net.checkpoint_arrays()] == expected + expected_buffers
        block = net.streams[0].blocks[1]
        assert [n for n, _ in named_parameters(block)] == [
            f"layer{i}.{f}" for i in range(2) for f in fields]
        assert named_parameters(block)[0][1] is block.layers[0].depthwise
        stored = dict(net.checkpoint_arrays())
        layer = net.streams[0].blocks[0].layers[0]
        assert stored["stream.rgb.block0.layer0.bn.mean"] is layer.bn_state.mean
        assert stored["stream.rgb.entry_w"] is net.streams[0].entry_w.data

    def test_duplicate_streams_rejected(self, refused):
        assert "distinct names" in refused("txn", [("rgb", 4), ("rgb", 4)], 3, small_kwargs())

    def test_gradients_match_finite_differences(self):
        """The registry's block and net cases pass at the default tolerance."""
        for result in run_cases(["txn_block", "txn_net"], seeds=[0, 1]):
            assert result.report.passed, result.line()


def per_batch_stream_oracle(params: TxnStreamParams, frames: list, mode: str) -> Value:
    """The stream forward that padded and pooled each batch's checked frames [T x D] itself."""
    cfg = params.config
    x = np.zeros((len(frames), cfg.pad_len, cfg.feature_dim))
    for row, f in zip(x, frames):
        row[:len(f)] = f[:cfg.pad_len]
    pooled, _, _ = ad.segment_max(x, cfg.num_segments)
    h = ad.pointwise_conv1d(Value(pooled), params.entry_w, params.entry_b)
    for block in params.blocks:
        h = txn_block_forward(block, h, mode)
    return ad.global_max_pool_time(h)


class TestPreparedClips:
    """prepare pads and pools each clip once; the stream forward only stacks the clips."""

    @pytest.mark.parametrize("num_segments", [8, 3])  # pad_len is 8
    @pytest.mark.parametrize("lengths", [((3, 9), (8, 4), (12, 8), (8, 15), (5, 2)),
                                         ((5, 12),), ((12, 8),)])
    def test_matches_per_batch_pad_and_pool_oracle_bitwise(self, num_segments, lengths):
        """Logits, every parameter gradient and the batch-norm statistics equal the
        per-batch path's bit for bit, with frame counts below, at and above pad_len."""
        gen = rng(7)
        batch = [{"rgb": gen.normal(size=(t, 4)), "flow": gen.normal(size=(u, 3))}
                 for t, u in lengths]
        labels = [i % 3 for i in range(len(batch))]
        configs = [small_config(num_segments=num_segments),
                   small_config(modality="flow", feature_dim=3, num_segments=num_segments)]
        net, oracle = (TxnParams.init(configs, 3, rng(42)) for _ in range(2))
        for p in (net, oracle):
            p.classifier_w.data[...] = rng(9).normal(size=p.classifier_w.data.shape)

        def oracle_logits(mode):
            reps = [per_batch_stream_oracle(s, [video[s.config.modality] for video in batch], mode)
                    for s in oracle.streams]
            return ad.affine(ad.concat(reps, axis=1), oracle.classifier_w, oracle.classifier_b)

        def logits_and_grads(params, logits):
            zero_grads(v for _, v in params.parameters())
            backward(ad.cross_entropy(logits, labels))
            return [logits.data] + [v.grad.copy() for _, v in params.parameters()]

        for mode in ("train", "train", "infer"):
            got = logits_and_grads(net, txn_forward_batch(net, net.prepare(batch), mode))
            expected = logits_and_grads(oracle, oracle_logits(mode))
            for a, b in zip(got, expected):
                assert a.tobytes() == b.tobytes()
            for (name, a), (_, b) in zip(net.checkpoint_arrays(), oracle.checkpoint_arrays()):
                assert a.tobytes() == b.tobytes(), name

    def test_default_clip_is_a_view_of_its_frames(self):
        """At pad_len == num_segments a clip copies no frames unless it must pad."""
        net = build_model("txn", [("rgb", 4)], 3, model_kwargs(TrainConfig(model="txn")), rng(0))
        pad_len = net.streams[0].config.pad_len
        frames = [rng(t).normal(size=(t, 4)) for t in (pad_len, pad_len + 15, pad_len - 10)]
        clips = [video[0] for video in net.prepare([{"rgb": x} for x in frames])]
        assert [c.shape for c in clips] == [(pad_len, 4)] * 3
        assert [np.shares_memory(c, x) for c, x in zip(clips, frames)] == [True, True, False]
        assert_array_equal(clips[1], frames[1][:pad_len])
        assert_array_equal(clips[2], np.concatenate([frames[2], np.zeros((10, 4))]))
