"""Unit tests for the training harness: config, optimizers, loop, artifacts."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from seqcls.autodiff import Value, _walk, backward, cross_entropy, rng, zero_grads
from seqcls.data import FeatureSequence, SynthConfig, VideoSample, modality_dims, synth_generate, write_mmf
from seqcls.errors import ConfigError, DataError, ShapeError
from seqcls.fusion import softmax_scores, write_scores
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
        {"threads": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestOptimizers:
    def test_sgd_momentum_two_step_oracle(self):
        """v <- m*v + g, p <- p - lr*v, followed by hand for two steps."""
        p = Value(np.array([1.0, 2.0]), requires_grad=True)
        opt = SgdMomentum(lr=0.1, momentum=0.9)
        p.grad[...] = [1.0, -1.0]
        opt.step([("p", p)])
        assert_allclose(p.data, [0.9, 2.1])
        p.grad[...] = [0.5, 0.5]
        opt.step([("p", p)])
        # v2 = 0.9*[1,-1] + [0.5,0.5] = [1.4, -0.4]
        assert_allclose(p.data, [0.9 - 0.14, 2.1 + 0.04])

    def test_adam_first_step_oracle(self):
        """Bias correction makes step one equal lr*g/(|g| + eps)."""
        p = Value(np.array([1.0, -2.0]), requires_grad=True)
        g = np.array([0.3, -0.2])
        opt = Adam(lr=0.01)
        p.grad[...] = g
        opt.step([("p", p)])
        expected = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + 1e-8)
        assert_allclose(p.data, expected, rtol=1e-12)

    def test_adam_second_step_oracle(self):
        p = Value(np.array([0.5]), requires_grad=True)
        opt = Adam(lr=0.01, beta1=0.9, beta2=0.999)
        g1, g2 = 0.4, -0.1
        p.grad[...] = g1
        opt.step([("p", p)])
        after_one = float(p.data[0])
        p.grad[...] = g2
        opt.step([("p", p)])
        m = 0.9 * (0.1 * g1) + 0.1 * g2
        v = 0.999 * (0.001 * g1 * g1) + 0.001 * g2 * g2
        mhat, vhat = m / (1 - 0.9 ** 2), v / (1 - 0.999 ** 2)
        assert_allclose(float(p.data[0]), after_one - 0.01 * mhat / (np.sqrt(vhat) + 1e-8),
                        rtol=1e-12)

    def test_state_is_kept_per_parameter_name(self):
        a = Value(np.zeros(2), requires_grad=True)
        b = Value(np.zeros(3), requires_grad=True)
        opt = Adam(lr=0.1)
        a.grad[...] = 1.0
        b.grad[...] = -1.0
        opt.step([("a", a), ("b", b)])
        assert set(opt.m) == {"a", "b"}
        assert opt.m["a"].shape == (2,)

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
            loss = full_batch_loss(params)
            before = float(loss.data)
            zero_grads(params.parameters())
            backward(loss)
            SgdMomentum(lr=1e-4, momentum=0.9).step(params.parameters())
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

    @pytest.mark.parametrize("model", MODELS)
    def test_missing_modality_or_bad_dim_is_a_shape_error(self, model):
        params = build_model(model, [("rgb", 4), ("flow", 3)], 3,
                             model_kwargs(small_cfg(model=model)), rng(0))
        good = {"rgb": Value(np.ones((6, 4))), "flow": Value(np.ones((6, 3)))}
        for batch in ([good, {"rgb": good["rgb"]}],
                      [good, {"rgb": good["rgb"], "flow": Value(np.ones((6, 5)))}],
                      []):
            with pytest.raises(ShapeError):
                MODELS[model].forward_batch(params, batch, "infer")

    @pytest.mark.parametrize("model", MODELS)
    def test_input_frames_are_graph_constants(self, model):
        """No model pads frames in the graph or stacks them into an untrainable node."""
        params = build_model(model, [("rgb", 4), ("flow", 3)], 3,
                             model_kwargs(small_cfg(model=model)), rng(0))
        gen = rng(1)
        batch = [VideoSample(f"v{i}", 0, [FeatureSequence("rgb", gen.normal(size=(t, 4))),
                                          FeatureSequence("flow", gen.normal(size=(t, 3)))])
                 for i, t in enumerate((4, 6, 9, 6))]
        nodes = list(_walk(batch_logits(model, params, batch, "train")))
        assert not [n for n in nodes if n._op == "zero_pad_time"]
        assert all(any(p.requires_grad for p in n._parents) for n in nodes if n._op == "stack")


class TestSnapshotRestore:
    def test_round_trip_including_buffers(self):
        cfg = small_cfg(model="txn")
        params = build_model("txn", [("m", 4)], 3, model_kwargs(cfg), rng(0))
        arrays = snapshot_arrays(params)
        assert "stream.m.block0.layer0.bn.mean" in arrays
        for _, v in params.parameters():
            v.data += 1.0
        for _, buf in params.buffers():
            buf += 1.0
        restore_arrays(params, arrays)
        for name, v in params.parameters():
            assert_array_equal(v.data, arrays[name])
        for name, buf in params.buffers():
            assert_array_equal(buf, arrays[name])

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
    def ragged_set(count):
        """Two-modality videos whose frame counts vary independently."""
        gen = rng(99)
        return [VideoSample(f"v{i:03d}", i % 3,
                            [FeatureSequence("rgb", gen.normal(size=(int(gen.integers(2, 6)), 4))),
                             FeatureSequence("flow", gen.normal(size=(int(gen.integers(3, 5)), 3)))])
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


class TestTrainLoop:
    def test_tracks_best_epoch_and_restores_it(self, small_dataset):
        train_samples, val_samples = small_dataset
        result = train(small_cfg(epochs=3), train_samples, val_samples)
        report = result.report
        assert len(report.epochs) == 3
        tops = [e.val_top1 for e in report.epochs]
        assert report.best_top1 == max(tops)
        assert report.best_epoch == tops.index(max(tops))  # earliest tie wins
        for name, v in result.params.parameters():
            assert_array_equal(v.data, result.best_arrays[name])
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
