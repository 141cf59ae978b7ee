"""Unit tests for the training harness: config, optimizers, loop, artifacts."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from seqcls.autodiff import Value, backward, cross_entropy, rng, zero_grads
import seqcls.autodiff as ad
import seqcls.training as training
from seqcls.data import FeatureSequence, SynthConfig, VideoSample, modality_dims, synth_generate, write_mmf
from seqcls.errors import ConfigError, DataError, ShapeError
from seqcls.fusion import ScoreTable, softmax_scores, write_scores
from seqcls.satt import satt_net_forward
from seqcls.training import (
    EVAL_CHUNK,
    MODELS,
    Adam,
    SgdMomentum,
    TrainConfig,
    batch_logits,
    build_model,
    evaluate,
    load_model,
    model_kwargs,
    restore_arrays,
    save_model,
    snapshot_arrays,
    train,
    train_from_files,
)

SMALL_DATA = SynthConfig(num_classes=3, videos_per_class=5, frames=6,
                         modalities={"m": 4}, signal_frames=2, seed=7)


def small_cfg(**overrides) -> TrainConfig:
    base = dict(model="satt", epochs=2, batch_size=4, lr=0.05, satt_heads=2,
                txn_pad_len=6, txn_segments=3, txn_channels=6)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def small_dataset():
    return synth_generate(SMALL_DATA)


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.model == "satt"
        assert cfg.optimizer == "adam"
        assert cfg.epochs == 30

    @pytest.mark.parametrize("kwargs", [
        {"model": "mlp"},
        {"optimizer": "rmsprop"},
        {"lr": -0.1},
        {"momentum": 1.0},
        {"beta1": 1.5},
        {"adam_eps": 0.0},
        {"batch_size": 0},
        {"epochs": 0},
        {"satt_alpha": float("inf")},
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"adam_eps": float("nan")},
        {"adam_eps": float("inf")},
        {"model": "txn", "txn_pad_len": 6.5, "txn_segments": 3},
        {"satt_heads": True},
        {"satt_alpha": 2},
        {"epochs": 2.5},
        {"batch_size": 2.5},
        {"seed": 1.5},
        {"seed": True},
        {"seed": -1},
        {"lr": "0.1"},
        {"model": ["satt"]},
        {"model": "satt", "txn_pad_len": "x"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_model_kwargs_name_int_or_float_fields(self):
        """A model_kwargs value must have its TrainConfig default's type, so every
        CONFIG_FIELDS entry names a field whose default is exactly an int or a float."""
        defaults = {f.name: f.default for f in fields(TrainConfig)}
        for cls in MODELS.values():
            for key, name in cls.CONFIG_FIELDS.items():
                assert name in defaults and type(defaults[name]) in (int, float), (key, name)


def graph_nodes(root):
    """Every node reachable from root, constants included, once each."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


@dataclass
class ref_SgdMomentum:
    """The per-name momentum step that the flat one replaces, kept as its oracle."""

    lr: float
    momentum: float = 0.9
    velocity: dict = field(default_factory=dict)

    def step(self, named_params):
        for name, p in named_params:
            vel = self.velocity.get(name)
            if vel is None:
                vel = np.zeros_like(p.data)
                self.velocity[name] = vel
            vel *= self.momentum
            vel += p.grad
            p.data -= self.lr * vel


@dataclass
class ref_Adam:
    """The per-name Adam step that the flat one replaces, kept as its oracle."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, named_params):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in named_params:
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m[...] = self.beta1 * m + (1.0 - self.beta1) * p.grad
            v[...] = self.beta2 * v + (1.0 - self.beta2) * p.grad * p.grad
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestOptimizers:
    def test_sgd_momentum_two_step_oracle(self):
        """v <- m*v + g, p <- p - lr*v, followed by hand for two steps."""
        p = Value(np.array([1.0, 2.0]), requires_grad=True)
        opt = SgdMomentum(lr=0.1, momentum=0.9)
        p.grad[...] = [1.0, -1.0]
        opt.step(p)
        assert_allclose(p.data, [0.9, 2.1])
        p.grad[...] = [0.5, 0.5]
        opt.step(p)
        # v2 = 0.9*[1,-1] + [0.5,0.5] = [1.4, -0.4]
        assert_allclose(p.data, [0.9 - 0.14, 2.1 + 0.04])

    def test_adam_first_step_oracle(self):
        """Bias correction makes step one equal lr*g/(|g| + eps)."""
        p = Value(np.array([1.0, -2.0]), requires_grad=True)
        g = np.array([0.3, -0.2])
        opt = Adam(lr=0.01)
        p.grad[...] = g
        opt.step(p)
        expected = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + 1e-8)
        assert_allclose(p.data, expected, rtol=1e-12)

    def test_adam_second_step_oracle(self):
        p = Value(np.array([0.5]), requires_grad=True)
        opt = Adam(lr=0.01, beta1=0.9, beta2=0.999)
        g1, g2 = 0.4, -0.1
        p.grad[...] = g1
        opt.step(p)
        after_one = float(p.data[0])
        p.grad[...] = g2
        opt.step(p)
        m = 0.9 * (0.1 * g1) + 0.1 * g2
        v = 0.999 * (0.001 * g1 * g1) + 0.001 * g2 * g2
        mhat, vhat = m / (1 - 0.9 ** 2), v / (1 - 0.999 ** 2)
        assert_allclose(float(p.data[0]), after_one - 0.01 * mhat / (np.sqrt(vhat) + 1e-8),
                        rtol=1e-12)

    def test_state_is_one_flat_vector_per_moment(self):
        a = Value(np.zeros(2), requires_grad=True)
        b = Value(np.zeros(3), requires_grad=True)
        flat = ad.pack([a, b])
        opt = Adam(lr=0.1)
        a.grad[...] = 1.0
        b.grad[...] = -1.0
        opt.step(flat)
        assert opt.m.shape == opt.v.shape == (5,)
        assert_allclose(opt.m, 0.1 * np.array([1.0, 1.0, -1.0, -1.0, -1.0]), rtol=1e-15)
        assert_allclose(a.data, [-0.1, -0.1])
        assert_allclose(b.data, [0.1, 0.1, 0.1])

    @pytest.mark.parametrize("kind, options", [
        ("adam", {"lr": 0.01}), ("adam", {"lr": 0.0}),
        ("adam", {"lr": 0.5, "beta1": 0.0, "beta2": 0.5, "eps": 1e-3}),
        ("sgd", {"lr": 0.01, "momentum": 0.9}), ("sgd", {"lr": 0.01, "momentum": 0.0}),
        ("sgd", {"lr": 0.0, "momentum": 0.9})])
    def test_flat_steps_equal_the_per_name_oracle_bitwise(self, kind, options):
        """50 steps of seeded gradients over rank-0, 1 and 2 leaves, some after zero_grads."""
        flat_opt, ref_opt = {"adam": (Adam, ref_Adam),
                             "sgd": (SgdMomentum, ref_SgdMomentum)}[kind]
        flat_opt, ref_opt = flat_opt(**options), ref_opt(**options)
        gen = rng(23)
        shapes = [(), (3,), (2, 4), (), (1,), (5, 1)]
        leaves = [Value(gen.normal(size=shape), requires_grad=True) for shape in shapes]
        refs = [(f"p{i}", Value(v.data.copy(), requires_grad=True)) for i, v in enumerate(leaves)]
        flat = ad.pack(leaves)
        for step in range(50):
            if step % 7 == 3:
                zero_grads([flat])  # a step on gradients zeroed through the arena
                zero_grads(r for _, r in refs)
            else:
                for v, (_, r) in zip(leaves, refs):
                    g = gen.normal(size=v.data.shape) * 10.0 ** float(gen.integers(-4, 3))
                    v.grad[...] = g
                    r.grad[...] = g
            flat_opt.step(flat)
            ref_opt.step(refs)
            for v, (_, r) in zip(leaves, refs):
                assert_same_bits(v.data, r.data)
                assert np.shares_memory(v.data, flat.data)
        assert_same_bits(flat.data, np.concatenate([r.data.reshape(-1) for _, r in refs]))

    @pytest.mark.parametrize("model", MODELS)
    def test_tiny_full_batch_step_never_increases_loss(self, model, small_dataset):
        """At lr=1e-4 one gradient step tracks the local linearization."""
        train_samples, _ = small_dataset
        dims = list(modality_dims(train_samples).items())
        targets = [s.label for s in train_samples]
        cfg = small_cfg(model=model)

        def full_batch_loss(params):
            logits = batch_logits(model, params, train_samples, mode="train")
            return cross_entropy(logits, targets)

        for seed in range(20):
            params = build_model(model, dims, SMALL_DATA.num_classes,
                                 model_kwargs(cfg), rng(seed))
            flat = ad.pack(v for _, v in params.parameters())
            loss = full_batch_loss(params)
            before = float(loss.data)
            zero_grads([flat])
            backward(loss)
            SgdMomentum(lr=1e-4, momentum=0.9).step(flat)
            after = float(full_batch_loss(params).data)
            assert after <= before + 1e-6, f"seed {seed}: {before} -> {after}"


class TestModelDispatch:
    def test_kwargs_follow_the_selected_model(self):
        assert model_kwargs(small_cfg()) == {"num_heads": 2, "alpha": 1.0}
        assert model_kwargs(small_cfg(model="txn"))["num_segments"] == 3
        assert model_kwargs(small_cfg(model="meanpool")) == {}

    def test_build_model_round_trips_kwargs(self):
        gen = rng(0)
        params = build_model("txn", [("m", 4)], 3, model_kwargs(small_cfg(model="txn")), gen)
        assert params.streams[0].config.num_segments == 3
        with pytest.raises(ConfigError):
            build_model("mlp", [("m", 4)], 3, {}, gen)
        with pytest.raises(DataError, match="alpha"):
            build_model("satt", [("m", 4)], 3, {"num_heads": 2}, gen)
        with pytest.raises(DataError, match="num_heads"):
            build_model("satt", [("m", 4)], 3, {"num_heads": "two", "alpha": 1.0}, gen)

    def test_batch_logits_shape(self, small_dataset):
        train_samples, _ = small_dataset
        cfg = small_cfg(model="txn")
        params = build_model("txn", [("m", 4)], 3, model_kwargs(cfg), rng(0))
        logits = batch_logits("txn", params, train_samples[:5], "infer")
        assert logits.data.shape == (5, 3)

    @pytest.mark.parametrize("name, model", [(n, m) for n in MODELS for m in MODELS if n != m])
    def test_a_name_that_does_not_name_the_params_class_is_a_config_error(
            self, name, model, small_dataset):
        """Dispatch goes through the params handed in, so a wrong name is refused, not run."""
        _, val = small_dataset
        params = build_model(model, [("m", 4)], 3, model_kwargs(small_cfg(model=model)), rng(0))
        with pytest.raises(ConfigError, match=f"model {name!r} does not name"):
            batch_logits(name, params, val[:4], "infer")
        with pytest.raises(ConfigError, match=f"model {name!r} does not name"):
            evaluate(name, params, val[:4])

    @pytest.mark.parametrize("model", MODELS)
    def test_missing_modality_or_bad_dim_is_a_shape_error(self, model):
        params = build_model(model, [("rgb", 4), ("flow", 3)], 3,
                             model_kwargs(small_cfg(model=model)), rng(0))
        good = {"rgb": np.ones((6, 4)), "flow": np.ones((6, 3))}
        for batch in ([good, {"rgb": good["rgb"]}],
                      [good, {"rgb": good["rgb"], "flow": np.ones((6, 5))}],
                      [good, {"rgb": good["rgb"], "flow": np.ones(6)}],
                      []):
            with pytest.raises(ShapeError):
                params.prepare(batch)

    @pytest.mark.parametrize("model", MODELS)
    def test_input_frames_are_graph_constants(self, model):
        """No model pads frames in the graph."""
        params = build_model(model, [("rgb", 4), ("flow", 3)], 3,
                             model_kwargs(small_cfg(model=model)), rng(0))
        gen = rng(1)
        batch = [VideoSample(f"v{i}", 0, [FeatureSequence("rgb", gen.normal(size=(t, 4))),
                                          FeatureSequence("flow", gen.normal(size=(t, 3)))])
                 for i, t in enumerate((4, 6, 9, 6))]
        nodes = graph_nodes(batch_logits(model, params, batch, "train"))
        assert not [n for n in nodes if n._op == "zero_pad_time"]


class TestSnapshotRestore:
    def test_round_trip_including_buffers(self):
        cfg = small_cfg(model="txn")
        params = build_model("txn", [("m", 4)], 3, model_kwargs(cfg), rng(0))
        arrays = snapshot_arrays(params)
        assert "stream.m.block0.layer0.bn.mean" in arrays
        for _, view in params.checkpoint_arrays():
            view += 1.0
        restore_arrays(params, arrays)
        for name, v in params.parameters():
            assert_array_equal(v.data, arrays[name])
        for name, view in params.checkpoint_arrays():
            assert_array_equal(view, arrays[name])

    def test_mismatched_keys_rejected(self):
        params = build_model("meanpool", [("m", 4)], 3, {}, rng(0))
        arrays = snapshot_arrays(params)
        arrays.pop("classifier.b")
        with pytest.raises(DataError):
            restore_arrays(params, arrays)
        arrays = snapshot_arrays(params)
        arrays["stray"] = np.zeros(1)
        with pytest.raises(DataError):
            restore_arrays(params, arrays)

    @pytest.mark.parametrize("model", ["txn", "meanpool"])
    def test_non_finite_arrays_rejected(self, model):
        """NaN weights would otherwise score as NaN rows; a NaN buffer as well."""
        params = build_model(model, [("m", 4)], 3, model_kwargs(small_cfg(model=model)), rng(0))
        for name in list(snapshot_arrays(params))[-1:] + ["classifier.w"]:
            arrays = snapshot_arrays(params)
            arrays[name].flat[0] = np.nan
            with pytest.raises(DataError, match="non-finite"):
                restore_arrays(params, arrays)

    def test_shape_mismatch_rejected(self):
        params = build_model("meanpool", [("m", 4)], 3, {}, rng(0))
        arrays = snapshot_arrays(params)
        arrays["classifier.b"] = np.zeros(7)
        with pytest.raises(DataError):
            restore_arrays(params, arrays)


TWO_MODALITIES = [("rgb", 4), ("flow", 3)]


def ragged_samples(n, seed):
    """Videos with rgb and flow frame counts drawn apart, straddling small_cfg's pad_len 6."""
    gen = rng(seed)
    return [VideoSample(f"v{i}", i % 3,
                        [FeatureSequence("rgb", gen.normal(size=(int(gen.integers(3, 10)), 4))),
                         FeatureSequence("flow", gen.normal(size=(int(gen.integers(3, 10)), 3)))])
            for i in range(n)]


class TestCheckpointArrays:
    """The views a checkpoint is read from and written to: what keeps its bytes fixed."""

    @pytest.mark.parametrize("model", MODELS)
    def test_entries_are_views_of_the_packed_arena(self, model):
        params = build_model(model, TWO_MODALITIES, 3, model_kwargs(small_cfg(model=model)),
                             rng(0))
        flat = ad.pack(v for _, v in params.parameters())
        stored = [(n, view) for n, view in params.checkpoint_arrays() if ".bn." not in n]
        for name, view in stored:
            assert np.shares_memory(view, flat.data), name
        assert sum(view.size for _, view in stored) == flat.data.size
        for i, (name, view) in enumerate(stored):  # so together they tile the arena
            assert not any(np.shares_memory(view, other) for _, other in stored[i + 1:]), name

    @pytest.mark.parametrize("model", MODELS)
    def test_restore_writes_through_the_views(self, model):
        params = build_model(model, TWO_MODALITIES, 3, model_kwargs(small_cfg(model=model)),
                             rng(0))
        flat = ad.pack(v for _, v in params.parameters())
        views = params.checkpoint_arrays()
        arrays = {name: view + 0.5 + i for i, (name, view) in enumerate(views)}
        restore_arrays(params, arrays)
        for name, view in views:
            assert_array_equal(view, arrays[name], err_msg=name)
        assert_array_equal(flat.data, np.concatenate([v.data.reshape(-1)
                                                      for _, v in params.parameters()]))
        assert snapshot_arrays(params).keys() == arrays.keys()

    @pytest.mark.parametrize("model, options", [
        ("satt", {"satt_heads": 1}), ("satt", {"satt_heads": 3}), ("txn", {"txn_blocks": 2})])
    def test_save_load_keeps_the_score_file_bytes(self, model, options, tmp_path):
        """A trained model scores ragged two-modality videos to the same bytes after a
        save and a load."""
        samples = ragged_samples(22, seed=4)
        cfg = small_cfg(model=model, epochs=2, **options)
        result = train(cfg, samples[:15], samples[15:])
        write_scores(tmp_path / "before.csv", evaluate(model, result.params, samples))
        save_model(tmp_path / "model.ckpt", model, result.params, result.kwargs)
        name, loaded, _ = load_model(tmp_path / "model.ckpt")
        assert name == model
        write_scores(tmp_path / "after.csv", evaluate(model, loaded, samples))
        assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()


class TestGraphSize:
    """One training step's graph: the op nodes and trainable leaves reachable from the loss."""

    @pytest.mark.parametrize("model, ops", [("satt", 19), ("txn", 25), ("meanpool", 2)])
    def test_default_step(self, model, ops):
        cfg = TrainConfig(model=model)
        samples = synth_generate(SynthConfig(videos_per_class=5))[0][:cfg.batch_size]
        params = build_model(model, list(modality_dims(samples).items()), 10,
                             model_kwargs(cfg), rng(cfg.seed))
        loss = cross_entropy(batch_logits(model, params, samples, "train"),
                             [s.label for s in samples])
        nodes = graph_nodes(loss)
        assert sum(n._op != "leaf" for n in nodes) == ops
        leaves = [n for n in nodes if n._op == "leaf" and n.requires_grad]
        assert {id(n) for n in leaves} == {id(v) for _, v in params.parameters()}
        if model == "satt":  # two modalities: w, a and b per group, then the classifier
            assert len(leaves) == 8


class TestSaveLoad:
    @pytest.mark.parametrize("model", ["satt", "txn", "meanpool"])
    def test_checkpoint_preserves_predictions(self, tmp_path, model, small_dataset):
        _, val = small_dataset
        cfg = small_cfg(model=model)
        params = build_model(model, [("m", 4)], 3, model_kwargs(cfg), rng(3))
        path = tmp_path / "model.ckpt"
        save_model(path, model, params, model_kwargs(cfg), meta_extra={"best_epoch": 0})
        name, loaded, meta = load_model(path)
        assert name == model
        assert meta["best_epoch"] == 0
        before = evaluate(model, params, val[:6])
        after = evaluate(model, loaded, val[:6])
        for vid in before.rows:
            assert_array_equal(after.rows[vid], before.rows[vid])

    def test_load_rejects_missing_metadata(self, tmp_path):
        from seqcls.data import write_checkpoint
        path = tmp_path / "bad.ckpt"
        for meta in ({"model": "satt"}, "model", 7):
            write_checkpoint(path, {}, meta)
            with pytest.raises(DataError):
                load_model(path)


class TestEvaluate:
    def test_covers_every_video_with_distributions(self, small_dataset):
        _, val = small_dataset
        params = build_model("meanpool", [("m", 4)], 3, {}, rng(0))
        table = evaluate("meanpool", params, val)
        assert set(table.rows) == {s.video_id for s in val}
        for row in table.rows.values():
            assert abs(row.sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize("model", ["satt", "txn", "meanpool"])
    def test_thread_count_never_changes_bytes(self, model, small_dataset):
        _, val = small_dataset
        cfg = small_cfg(model=model)
        params = build_model(model, [("m", 4)], 3, model_kwargs(cfg), rng(5))
        single = evaluate(model, params, val, threads=1)
        pooled = evaluate(model, params, val, threads=4)
        for vid in single.rows:
            assert_array_equal(pooled.rows[vid], single.rows[vid])

    @staticmethod
    def ragged_set(count, seed=99, rgb_frames=(2, 6), flow_frames=(3, 5)):
        """Two-modality videos whose frame counts vary independently."""
        gen = rng(seed)
        return [VideoSample(f"v{i:03d}", i % 3,
                            [FeatureSequence("rgb", gen.normal(size=(int(gen.integers(*rgb_frames)), 4))),
                             FeatureSequence("flow", gen.normal(size=(int(gen.integers(*flow_frames)), 3)))])
                for i in range(count)]

    @pytest.mark.parametrize("model", MODELS)
    def test_ragged_chunks_are_byte_identical_across_threads(self, model, tmp_path):
        """A set that is not a whole number of chunks scores the same at 1 and 3 threads."""
        samples = self.ragged_set(2 * EVAL_CHUNK + 5)
        cfg = small_cfg(model=model, txn_pad_len=5, txn_segments=2)
        params = build_model(model, [("rgb", 4), ("flow", 3)], 3, model_kwargs(cfg), rng(8))
        paths = []
        for threads in (1, 3):
            paths.append(tmp_path / f"t{threads}.csv")
            write_scores(paths[-1], evaluate(model, params, samples, threads=threads))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert len(paths[0].read_text().splitlines()) == len(samples) + 1

    def test_satt_chunks_agree_with_per_video_scores(self):
        samples = self.ragged_set(EVAL_CHUNK + 3)
        params = build_model("satt", [("rgb", 4), ("flow", 3)], 3,
                             model_kwargs(small_cfg()), rng(8))
        table = evaluate("satt", params, samples)
        assert list(table.rows) == [s.video_id for s in samples]
        for s in samples:
            logits = satt_net_forward(params, {m: Value(f) for m, f in s.by_modality().items()})
            assert_allclose(table.rows[s.video_id], softmax_scores(logits.data),
                            rtol=1e-12, atol=1e-15)

    def test_empty_input_rejected(self):
        params = build_model("meanpool", [("m", 4)], 3, {}, rng(0))
        with pytest.raises(DataError):
            evaluate("meanpool", params, [])

    def test_thread_count_below_one_rejected(self, small_dataset):
        _, val = small_dataset
        params = build_model("meanpool", [("m", 4)], 3, {}, rng(0))
        with pytest.raises(ConfigError, match="^threads must be >= 1, got 0$"):
            evaluate("meanpool", params, val, threads=0)
        for threads in (True, 1.5, 2.0, "2"):  # no bool, float or string stands for a count
            with pytest.raises(ConfigError, match="^threads must be an int, got "):
                evaluate("meanpool", params, val, threads=threads)


def ref_softmax_scores(logits: np.ndarray) -> np.ndarray:
    """Probabilities of one logit vector, as evaluate computed them per row."""
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def ref_evaluate(model: str, params, samples: list[VideoSample]) -> ScoreTable:
    """The evaluation the length-ordered one replaces: chunks of EVAL_CHUNK in
    dataset order, then one softmax and one checked ``add`` per row."""
    table = ScoreTable(num_classes=params.num_classes)
    for start in range(0, len(samples), EVAL_CHUNK):
        chunk = samples[start:start + EVAL_CHUNK]
        for s, row in zip(chunk, batch_logits(model, params, chunk, "infer").data):
            table.add(s.video_id, ref_softmax_scores(row))
    return table


def wide_ragged_set(count: int) -> list[VideoSample]:
    """Videos with 32 distinct frame-count pairs, so that dataset-order chunks
    mix lengths and frame-count order regroups them."""
    return TestEvaluate.ragged_set(count, seed=3, rgb_frames=(2, 10), flow_frames=(3, 7))


def ragged_params(model: str):
    cfg = small_cfg(model=model, txn_pad_len=5, txn_segments=2)
    return build_model(model, [("rgb", 4), ("flow", 3)], 3, model_kwargs(cfg), rng(8))


class TestLengthOrderedEvaluate:
    @pytest.mark.parametrize("count", [37, 50, 200])
    @pytest.mark.parametrize("model", MODELS)
    def test_rows_match_dataset_order_oracle_bitwise(self, model, count):
        samples = wide_ragged_set(count)
        params = ragged_params(model)
        fast, ref = evaluate(model, params, samples), ref_evaluate(model, params, samples)
        assert list(fast.rows) == list(ref.rows) == [s.video_id for s in samples]
        for vid, row in ref.rows.items():
            assert fast.rows[vid].tobytes() == row.tobytes(), vid

    @pytest.mark.parametrize("model", MODELS)
    def test_one_video_chunk_moves_at_most_two_rows(self, model):
        """With N % EVAL_CHUNK == 1 the last chunk's affine map is a
        matrix-vector product, and a different video lands in it."""
        samples = wide_ragged_set(2 * EVAL_CHUNK + 1)
        params = ragged_params(model)
        fast, ref = evaluate(model, params, samples), ref_evaluate(model, params, samples)
        assert list(fast.rows) == list(ref.rows)
        moved = [vid for vid, row in ref.rows.items() if fast.rows[vid].tobytes() != row.tobytes()]
        assert len(moved) <= 2
        for vid in moved:
            assert_allclose(fast.rows[vid], ref.rows[vid], rtol=0.0, atol=4e-16)

    def test_satt_runs_few_length_blocks(self, monkeypatch):
        """Per modality, satt runs one block per (chunk, frame-count pair) it
        meets; length order bounds that by chunks + distinct pairs - 1."""
        samples = wide_ragged_set(200)
        params = ragged_params("satt")
        calls = {4: 0, 3: 0}  # per modality, keyed by its feature dim
        row_dot = ad.row_dot

        def counting_row_dot(x, w):
            calls[x.data.shape[-1]] += 1
            return row_dot(x, w)

        monkeypatch.setattr(ad, "row_dot", counting_row_dot)
        evaluate("satt", params, samples)
        chunks = -(-len(samples) // EVAL_CHUNK)
        pairs = {tuple(len(seq.features) for seq in s.sequences) for s in samples}
        assert calls[4] == calls[3] <= chunks + len(pairs) - 1

    @pytest.mark.parametrize("model", MODELS)
    def test_prepared_inputs_give_the_bytes_of_samples_alone(self, model, monkeypatch, tmp_path):
        """Handing evaluate the split's inputs, letting evaluate prepare each chunk,
        and preparing each chunk inside batch_logits all write the same score file."""
        samples = wide_ragged_set(2 * EVAL_CHUNK + 1)
        params = ragged_params(model)
        paths = [tmp_path / name for name in ("handed.csv", "alone.csv", "per_chunk.csv")]
        inputs = params.prepare([s.by_modality() for s in samples])
        write_scores(paths[0], evaluate(model, params, samples, inputs=inputs))
        write_scores(paths[1], evaluate(model, params, samples))
        prepared = training.batch_logits
        monkeypatch.setattr(training, "batch_logits", lambda model, params, batch, mode,
                            inputs=None: prepared(model, params, batch, mode))
        write_scores(paths[2], evaluate(model, params, samples))
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    @pytest.mark.parametrize("model", MODELS)
    def test_prepare_runs_once_per_chunk_without_inputs(self, model, monkeypatch):
        """Without inputs each chunk is prepared as it is scored, and every sample
        exactly once; with inputs nothing is prepared."""
        samples = wide_ragged_set(3 * EVAL_CHUNK + 5)
        params = ragged_params(model)
        inputs = params.prepare([s.by_modality() for s in samples])
        position = {id(s.sequences[0].features): i for i, s in enumerate(samples)}
        batches = []
        prepare = MODELS[model].prepare

        def counted(self, batch):
            batches.append([position[id(next(iter(frames.values())))] for frames in batch])
            return prepare(self, batch)

        monkeypatch.setattr(MODELS[model], "prepare", counted)
        evaluate(model, params, samples)
        assert [len(b) for b in batches] == [EVAL_CHUNK] * 3 + [5]
        assert sorted(i for b in batches for i in b) == list(range(len(samples)))
        counts = [sorted((q.modality, len(q.features)) for q in samples[i].sequences)
                  for b in batches for i in b]
        assert counts == sorted(counts)  # in scoring order: frame-count order
        batches.clear()
        evaluate(model, params, samples, inputs=inputs)
        assert batches == []

    @pytest.mark.parametrize("model", MODELS)
    def test_missing_modality_is_a_shape_error(self, model):
        samples = wide_ragged_set(40)
        samples[29] = VideoSample("lacks-flow", 0, samples[29].sequences[:1])
        with pytest.raises(ShapeError, match="flow"):
            evaluate(model, ragged_params(model), samples)

    @pytest.mark.parametrize("model", MODELS)
    def test_non_finite_logit_names_the_first_video_in_dataset_order(self, model, monkeypatch):
        samples = wide_ragged_set(40)
        rank = {i: r for r, i in enumerate(sorted(
            range(len(samples)),
            key=lambda i: sorted((seq.modality, len(seq.features)) for seq in samples[i].sequences)))}
        # two videos whose frame-count order is the reverse of their dataset order,
        # scored in different chunks
        first, later = next((a, b) for a in range(len(samples))
                            for b in range(a + 1, len(samples)) if rank[b] + EVAL_CHUNK < rank[a])
        poisoned = {samples[first].video_id, samples[later].video_id}

        def poisoning_batch_logits(model, params, batch, mode, inputs=None):
            logits = batch_logits(model, params, batch, mode, inputs)
            for row, s in zip(logits.data, batch):
                if s.video_id in poisoned:
                    row[0] = np.nan
            return logits

        monkeypatch.setattr(training, "batch_logits", poisoning_batch_logits)
        with pytest.raises(DataError, match=f"video {samples[first].video_id!r}: scores must be finite"):
            evaluate(model, ragged_params(model), samples)


class TestTrainLoop:
    def test_tracks_best_epoch_and_restores_it(self, small_dataset):
        train_samples, val_samples = small_dataset
        result = train(small_cfg(epochs=3), train_samples, val_samples)
        report = result.report
        assert len(report.epochs) == 3
        tops = [e.val_top1 for e in report.epochs]
        assert report.best_top1 == max(tops)
        assert report.best_epoch == tops.index(max(tops))  # earliest tie wins
        for name, view in result.params.checkpoint_arrays():
            assert_array_equal(view, result.best_arrays[name])
        rescored = evaluate(small_cfg().model, result.params, val_samples)
        for vid, row in result.best_table.rows.items():
            assert_array_equal(rescored.rows[vid], row)

    @pytest.mark.parametrize("model", ["satt", "txn", "meanpool"])
    def test_two_runs_are_byte_identical(self, model, small_dataset):
        train_samples, val_samples = small_dataset
        cfg = small_cfg(model=model)
        r1 = train(cfg, train_samples, val_samples)
        r2 = train(cfg, train_samples, val_samples)
        assert r1.report.to_text() == r2.report.to_text()
        for vid, row in r1.best_table.rows.items():
            assert_array_equal(r2.best_table.rows[vid], row)

    @pytest.mark.parametrize("model", MODELS)
    def test_parameters_stay_views_of_the_packed_leaf(self, model, small_dataset, monkeypatch):
        """A path that rebinds p.data or its grad would detach it from the arena silently."""
        packed = []
        pack = ad.pack

        def recorded(values):
            packed.append(pack(values))
            return packed[-1]

        monkeypatch.setattr(ad, "pack", recorded)
        train_samples, val_samples = small_dataset
        result = train(small_cfg(model=model), train_samples, val_samples)
        [flat] = packed
        named = result.params.parameters()
        for name, v in named:
            assert np.shares_memory(v.data, flat.data), name
            assert np.shares_memory(v.grad, flat.grad), name
        assert_array_equal(np.concatenate([v.data.reshape(-1) for _, v in named]), flat.data)

    @pytest.mark.parametrize("optimizer", training.OPTIMIZERS)
    def test_zero_grads_and_the_step_run_once_per_batch(self, optimizer, small_dataset,
                                                         monkeypatch):
        """The traced benchmark cuts steps at zero_grads in train and the optimizer step,
        and times the step's forward as its one batch_logits call, on prepared inputs."""
        events = []
        zero_grads_fn, logits_fn = ad.zero_grads, training.batch_logits

        def counted_zero_grads(params):
            events.append(("zero_grads", sys._getframe(1).f_code.co_name))
            return zero_grads_fn(params)

        cls = {"adam": Adam, "sgd": SgdMomentum}[optimizer]
        step = cls.step

        def counted_step(self, flat):
            events.append(("step",))
            return step(self, flat)

        def counted_logits(model, params, batch, mode, inputs=None):
            events.append(("batch_logits", mode, inputs is not None))
            return logits_fn(model, params, batch, mode, inputs)

        monkeypatch.setattr(ad, "zero_grads", counted_zero_grads)
        monkeypatch.setattr(training, "zero_grads", counted_zero_grads)
        monkeypatch.setattr(cls, "step", counted_step)
        monkeypatch.setattr(training, "batch_logits", counted_logits)
        train_samples, val_samples = small_dataset
        cfg = small_cfg(optimizer=optimizer, epochs=3, batch_size=4)
        train(cfg, train_samples, val_samples)
        steps = [("zero_grads", "train"), ("batch_logits", "train", True), ("step",)]
        scoring = [("batch_logits", "infer", True)] * -(-len(val_samples) // EVAL_CHUNK)
        batches = -(-len(train_samples) // cfg.batch_size)
        assert events == (steps * batches + scoring) * cfg.epochs

    @pytest.mark.parametrize("model", MODELS)
    def test_split_prepared_once_equals_each_batch_prepared_afresh(self, model, monkeypatch):
        """Preparing the training and validation splits once per run changes no byte of
        any artifact: ``afresh`` drops the prepared inputs of every step and every
        scoring chunk, so each batch of either split is prepared on its own."""
        samples = TestEvaluate.ragged_set(40, seed=13)
        train_samples, val_samples = samples[:30], samples[30:]
        cfg = small_cfg(model=model, epochs=3, txn_pad_len=5, txn_segments=2)
        once = train(cfg, train_samples, val_samples)
        prepared = training.batch_logits

        def afresh(model, params, batch, mode, inputs=None):
            return prepared(model, params, batch, mode)

        monkeypatch.setattr(training, "batch_logits", afresh)
        fresh = train(cfg, train_samples, val_samples)
        assert once.report.to_text() == fresh.report.to_text()
        assert list(once.best_table.rows) == list(fresh.best_table.rows)
        for vid, row in fresh.best_table.rows.items():
            assert once.best_table.rows[vid].tobytes() == row.tobytes(), vid
        assert list(once.best_arrays) == list(fresh.best_arrays)
        for name, array in fresh.best_arrays.items():
            assert once.best_arrays[name].tobytes() == array.tobytes(), name

    @pytest.mark.parametrize("epochs", [1, 4])
    @pytest.mark.parametrize("model", MODELS)
    def test_prepare_runs_twice_per_train_call(self, model, epochs, small_dataset, monkeypatch):
        """Once for the training split and once for the validation split, whatever the epochs."""
        calls = []
        prepare = MODELS[model].prepare

        def counted(self, batch):
            calls.append(len(batch))
            return prepare(self, batch)

        monkeypatch.setattr(MODELS[model], "prepare", counted)
        train_samples, val_samples = small_dataset
        train(small_cfg(model=model, epochs=epochs), train_samples, val_samples)
        assert calls == [len(train_samples), len(val_samples)]

    def test_each_epoch_scores_through_one_evaluate_call(self, small_dataset, monkeypatch):
        """The traced benchmark opens an eval unit at every ``training.evaluate`` call,
        so train must score each epoch through it, on the prepared validation split."""
        calls = []
        evaluate_fn = training.evaluate

        def counted(model, params, samples, threads=1, *, inputs=None):
            calls.append((samples is val_samples, inputs is not None and len(inputs)))
            return evaluate_fn(model, params, samples, threads, inputs=inputs)

        monkeypatch.setattr(training, "evaluate", counted)
        train_samples, val_samples = small_dataset
        train(small_cfg(epochs=3), train_samples, val_samples)
        assert calls == [(True, len(val_samples))] * 3

    def test_sgd_optimizer_path(self, small_dataset):
        train_samples, val_samples = small_dataset
        result = train(small_cfg(optimizer="sgd", lr=0.1), train_samples, val_samples)
        assert len(result.report.epochs) == 2

    def test_metrics_text_excludes_wall_clock(self, small_dataset):
        train_samples, val_samples = small_dataset
        result = train(small_cfg(), train_samples, val_samples)
        text = result.report.to_text()
        assert "wall" not in text
        assert text.startswith("model=satt\nclasses=3\n")
        assert result.report.wall_seconds > 0.0

    def test_loss_decreases_on_easy_data(self):
        """Two epochs on nearly noise-free data must reduce the training loss."""
        easy = SynthConfig(num_classes=3, videos_per_class=5, frames=6,
                           modalities={"m": 4}, signal_frames=6, noise_std=0.05, seed=1)
        train_samples, val_samples = synth_generate(easy)
        result = train(small_cfg(epochs=4), train_samples, val_samples)
        losses = [e.train_loss for e in result.report.epochs]
        assert losses[-1] < losses[0]

    def test_rejects_empty_splits(self, small_dataset):
        train_samples, val_samples = small_dataset
        with pytest.raises(DataError):
            train(small_cfg(), [], val_samples)
        with pytest.raises(DataError):
            train(small_cfg(), train_samples, [])

    def test_rejects_modality_dim_conflicts(self, small_dataset):
        train_samples, _ = small_dataset
        other = synth_generate(SynthConfig(num_classes=3, videos_per_class=5, frames=6,
                                           modalities={"m": 5}, seed=2))[1]
        with pytest.raises(DataError):
            train(small_cfg(), train_samples, other)

    def test_train_from_files(self, tmp_path, small_dataset):
        train_samples, val_samples = small_dataset
        tp, vp = tmp_path / "train.mmf", tmp_path / "val.mmf"
        write_mmf(tp, train_samples)
        write_mmf(vp, val_samples)
        result = train_from_files(small_cfg(epochs=1), tp, vp)
        assert len(result.report.epochs) == 1
        assert set(result.best_table.rows) == {s.video_id for s in val_samples}
