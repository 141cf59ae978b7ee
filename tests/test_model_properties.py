"""Property tests over every entry of ``training.MODELS``, on drawn configs and batches.

Each draw picks 1-2 modalities of dims 1-8, videos whose frame counts vary
from 1 to 40 per modality, and the model's sizes: satt's head count and
sharpness; txn's kernel length, block width (1 takes the depthwise tap
loop), block count, clip length and segment count, each below and above
the frame counts.  Every parameter is drawn at random, so no property holds
by a zero-initialized classifier.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcls import autodiff as ad
from seqcls.autodiff import pointwise_conv1d, rng
from seqcls.data import FeatureSequence, VideoSample
from seqcls.fusion import write_scores
from seqcls.training import MODELS, Adam, build_model, evaluate, load_model, save_model

PROPERTIES = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def model_cases(draw, model: str):
    dims = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))
    modalities = [(f"m{i}", d) for i, d in enumerate(dims)]
    videos = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.lists(st.integers(1, 40), min_size=len(dims), max_size=len(dims)),
                            min_size=videos, max_size=videos))
    if model == "satt":
        kwargs = {"num_heads": draw(st.integers(1, 4)),
                  "alpha": draw(st.floats(0.1, 3.0, allow_nan=False))}
    elif model == "txn":
        pad_len = draw(st.integers(2, 48))
        kwargs = {"pad_len": pad_len, "num_segments": draw(st.integers(2, pad_len)),
                  "kernel_size": draw(st.sampled_from([1, 3, 5])),
                  "block_channels": draw(st.sampled_from([1, 2, 5])),
                  "num_blocks": draw(st.integers(1, 2))}
    else:
        kwargs = {}
    seed = draw(st.integers(0, 2 ** 16))
    gen = rng(seed)
    params = build_model(model, modalities, 3, kwargs, gen)
    for _, v in params.parameters():
        v.data[...] = gen.normal(size=v.data.shape)
    # rounded frames repeat values, and round small negatives to -0.0
    batch = [{m: np.round(gen.normal(size=(t, d)), int(gen.integers(0, 3)))
              for (m, d), t in zip(modalities, counts)} for counts in lengths]
    return params, batch, gen, kwargs


def logits(params, batch, mode):
    return params.forward_batch(params.prepare(batch), mode).data


def classified(params, batch, mode):
    """Logits [B x K] and the classifier's input rows [B x R] they were mapped from."""
    seen = []

    def recorded(x, w, b):
        if w is params.classifier_w:  # txn's streams map channels with the same op
            seen.append(x.data)
        return pointwise_conv1d(x, w, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "pointwise_conv1d", recorded)
        out = logits(params, batch, mode)
    [rows] = seen
    return out, rows


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# the modes in which each model scores a video independently of its batch
BATCH_FREE_MODES = {"satt": ("train", "infer"), "meanpool": ("train", "infer"), "txn": ("infer",)}


@pytest.mark.parametrize("model", MODELS)
def test_each_row_equals_the_video_scored_alone(model):
    """A video's numbers do not depend on the batch it is scored in.

    The classifier's input row is bit-identical.  The logits of a batch of
    one come from a matrix-vector product, whose sums round in another
    order than a matrix product's, so they agree within the rounding bound
    of a length-R dot product: (R + 1) eps (|x| |W| + |b|).  txn in train
    mode normalizes with the batch's statistics, so only its infer mode is
    batch-independent.
    """
    @PROPERTIES
    @given(model_cases(model))
    def check(case):
        params, batch, _, _ = case
        w, b = params.classifier_w.data, params.classifier_b.data
        for mode in BATCH_FREE_MODES[model]:
            out, reps = classified(params, batch, mode)
            for row, rep, video in zip(out, reps, batch):
                single, single_rep = classified(params, [video], mode)
                assert_same_bits(rep, single_rep[0])
                bound = (len(rep) + 1) * np.finfo(float).eps * (np.abs(rep) @ np.abs(w) + np.abs(b))
                assert np.all(np.abs(row - single[0]) <= bound)

    check()


@PROPERTIES
@given(model_cases("satt"))
def test_satt_logits_ignore_frame_order(case):
    params, batch, gen, _ = case
    want = logits(params, batch, "train")
    for _ in range(3):
        shuffled = [{m: x[gen.permutation(len(x))] for m, x in video.items()} for video in batch]
        assert_same_bits(logits(params, shuffled, "train"), want)


def train_loss(params, batch, labels):
    """Cross-entropy of a train-mode forward of the batch."""
    return ad.cross_entropy(params.forward_batch(params.prepare(batch), "train"), labels)


def drawn_labels(params, batch, gen):
    return [int(k) for k in gen.integers(0, params.num_classes, size=len(batch))]


@PROPERTIES
@given(model_cases("satt"))
def test_satt_gradients_ignore_frame_order(case):
    """Each video's frames permuted per modality: every parameter gradient, bitwise."""
    params, batch, gen, _ = case
    leaves = [v for _, v in params.parameters()]
    labels = drawn_labels(params, batch, gen)

    def grads(videos):
        ad.zero_grads(leaves)
        ad.backward(train_loss(params, videos, labels))
        return [v.grad.copy() for v in leaves]

    want = grads(batch)
    for _ in range(3):
        shuffled = [{m: x[gen.permutation(len(x))] for m, x in video.items()} for video in batch]
        for got, expected in zip(grads(shuffled), want):
            assert_same_bits(got, expected)


@pytest.mark.parametrize("model", MODELS)
def test_parameters_stay_views_of_the_arena_after_a_step(model):
    """After ``ad.pack`` and one Adam step, every parameter's values and gradient are
    still views of the flat leaf's, and every checkpoint array still a view of its
    leaf: the views taken before the step show the stepped values."""
    @PROPERTIES
    @given(model_cases(model))
    def check(case):
        params, batch, gen, _ = case
        flat = ad.pack(v for _, v in params.parameters())
        before = params.checkpoint_arrays()
        ad.zero_grads([flat])
        ad.backward(train_loss(params, batch, drawn_labels(params, batch, gen)))
        Adam(lr=0.1).step(flat)
        for name, v in params.parameters():
            assert np.shares_memory(v.data, flat.data) and np.shares_memory(v.grad, flat.grad), name
        after = params.checkpoint_arrays()
        assert [name for name, _ in after] == [name for name, _ in before]
        for (name, old), (_, new) in zip(before, after):
            # txn's batch-norm running statistics live outside the arena, in its BnStates
            in_arena = not name.endswith((".mean", ".var"))
            assert np.shares_memory(new, flat.data) == in_arena, name
            assert np.shares_memory(old, new), name
            assert_same_bits(old, new)

    check()


@pytest.mark.parametrize("model", MODELS)
def test_checkpoint_round_trip_writes_the_same_scores(model, tmp_path):
    """save_model, load_model, evaluate: the score bytes evaluate wrote before the save.

    Loading rebuilds the model through build_model from the checkpoint's
    metadata and arrays, so every drawn shape must pass its checks and
    come back exactly.
    """
    before, after, path = tmp_path / "before.csv", tmp_path / "after.csv", tmp_path / "m.ckpt"

    @PROPERTIES
    @given(model_cases(model))
    def check(case):
        params, batch, gen, kwargs = case
        for name, view in params.checkpoint_arrays():
            if name.endswith((".mean", ".var")):  # txn's running statistics, fresh until trained
                view[...] = gen.uniform(0.5, 2.0, size=view.shape)
        samples = [VideoSample(f"v{i}", 0, [FeatureSequence(m, x) for m, x in video.items()])
                   for i, video in enumerate(batch)]
        write_scores(before, evaluate(model, params, samples))
        save_model(path, model, params, kwargs)
        name, loaded, _ = load_model(path)
        write_scores(after, evaluate(name, loaded, samples))
        assert after.read_bytes() == before.read_bytes()

    check()
