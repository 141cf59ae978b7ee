"""Shared fixtures and nearest-prototype oracles for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from seqcls.autodiff import rng
from seqcls.data import SynthConfig, synth_generate, synth_prototypes
from seqcls.errors import ConfigError, DataError
from seqcls.training import MODELS, TrainConfig, build_model, train

FIXTURES_PATH = Path(__file__).with_name("reference_fixtures.json")


def concat_prototypes(samples, prototypes):
    """Class prototypes concatenated in the modality order of the samples."""
    order = [seq.modality for seq in samples[0].sequences]
    return np.concatenate([prototypes[m] for m in order], axis=1)


def mean_pool_oracle_top1(samples, prototypes):
    """Accuracy of nearest-prototype matching on temporally averaged features."""
    protos = concat_prototypes(samples, prototypes)
    hits = 0
    for s in samples:
        mean = np.concatenate([seq.features.mean(axis=0) for seq in s.sequences])
        hits += int(np.argmin(np.linalg.norm(protos - mean, axis=1)) == s.label)
    return hits / len(samples)


def best_frame_oracle_top1(samples, prototypes):
    """Accuracy of nearest-prototype matching via the closest single frame."""
    protos = concat_prototypes(samples, prototypes)
    hits = 0
    for s in samples:
        frames = np.concatenate([seq.features for seq in s.sequences], axis=1)
        dists = np.linalg.norm(frames[:, None, :] - protos[None, :, :], axis=2)
        hits += int(np.unravel_index(np.argmin(dists), dists.shape)[1] == s.label)
    return hits / len(samples)


def max_abs_prototype_cos(prototypes):
    """Largest off-diagonal |cosine| between class prototypes of any modality."""
    worst = 0.0
    for protos in prototypes.values():
        cos = protos @ protos.T
        off = np.abs(cos[~np.eye(len(cos), dtype=bool)])
        worst = max(worst, float(off.max()))
    return worst


@pytest.fixture(scope="session")
def default_dataset():
    """(train, val) split of the synthetic dataset at default settings."""
    return synth_generate(SynthConfig())


@pytest.fixture(scope="session")
def default_prototypes():
    """Planted class prototypes of the default synthetic dataset."""
    return synth_prototypes(SynthConfig())


@pytest.fixture(scope="session")
def reference():
    """Pinned reference numbers; regenerate with make_reference_fixtures.py."""
    with FIXTURES_PATH.open() as fh:
        return json.load(fh)


@pytest.fixture
def refused(monkeypatch):
    """refused(model, modalities, num_classes, kwargs): build_model's error message.

    Every model's from_kwargs is refused, so the shape must be rejected
    (with an exit-2 error) before any constructor runs.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("model built from a shape build_model should refuse")

    for cls in MODELS.values():
        monkeypatch.setattr(cls, "from_kwargs", refuse)

    def check(model, modalities, num_classes, kwargs) -> str:
        with pytest.raises((ConfigError, DataError)) as info:
            build_model(model, modalities, num_classes, kwargs, rng(0))
        return str(info.value)

    return check


@pytest.fixture(scope="session")
def trained_models(default_dataset):
    """One TrainResult per model at pure defaults, shared across tests."""
    train_samples, val_samples = default_dataset
    return {m: train(TrainConfig(model=m), train_samples, val_samples) for m in MODELS}
