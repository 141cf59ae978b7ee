"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import dataclasses
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqcls

from seqcls import cli
from seqcls.autodiff import rng
from seqcls.cli import (
    EXIT_CONFIG,
    EXIT_GRADCHECK,
    EXIT_IO,
    EXIT_OK,
    main,
    make_train_config,
    parse_config_file,
)
from seqcls.data import read_checkpoint, read_labels, read_mmf, write_checkpoint, write_mmf
from seqcls.errors import ConfigError
from seqcls.fusion import read_scores
from seqcls.satt import MAX_NUM_HEADS
from seqcls.training import EVAL_CHUNK, MODELS, MetricsReport, TrainConfig, build_model
from seqcls.txn import MAX_BLOCK_CHANNELS, MAX_KERNEL_SIZE, MAX_NUM_BLOCKS

SMALL_GEN = ["--classes", "3", "--videos-per-class", "5", "--frames", "6",
             "--signal-frames", "2", "--modalities", "m:4", "--seed", "7"]
SMALL_TRAIN = ["--epochs", "2", "--batch-size", "4", "--lr", "0.05",
               "--satt-heads", "2", "--quiet"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated dataset plus one trained model, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data, run = root / "data", root / "run"
    assert main(["synthgen", "--out", str(data)] + SMALL_GEN) == EXIT_OK
    assert main(["train", "--train", str(data / "train.mmf"), "--val", str(data / "val.mmf"),
                 "--out", str(run)] + SMALL_TRAIN) == EXIT_OK
    return {"root": root, "data": data, "run": run}


@pytest.fixture(scope="module")
def two_modality_runs(tmp_path_factory):
    """One checkpoint per model trained on rgb+flow, plus an rgb-only dataset."""
    root = tmp_path_factory.mktemp("two_modalities")
    gen = SMALL_GEN[:SMALL_GEN.index("--modalities")]
    assert main(["synthgen", "--out", str(root / "data"), *gen,
                 "--modalities", "rgb:4,flow:3"]) == EXIT_OK
    assert main(["synthgen", "--out", str(root / "rgb_only"), *gen,
                 "--modalities", "rgb:4"]) == EXIT_OK
    for model in ("satt", "txn", "meanpool"):
        assert main(["train", "--train", str(root / "data" / "train.mmf"),
                     "--val", str(root / "data" / "val.mmf"), "--out", str(root / model),
                     "--model", model, "--epochs", "1", "--batch-size", "4",
                     "--satt-heads", "2", "--txn-pad-len", "6", "--txn-segments", "3",
                     "--txn-channels", "4", "--quiet"]) == EXIT_OK
    return root


class TestSynthgen:
    def test_writes_all_four_files(self, workspace, capsys):
        data = workspace["data"]
        for name in ("train.mmf", "val.mmf", "train_labels.csv", "val_labels.csv"):
            assert (data / name).exists(), name
        assert len(read_mmf(data / "train.mmf")) == 12
        assert len(read_mmf(data / "val.mmf")) == 3
        labels = read_labels(data / "val_labels.csv")
        assert set(labels.values()) == {0, 1, 2}

    def test_defaults_announce_counts(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["synthgen", "--out", str(out)] + SMALL_GEN) == EXIT_OK
        assert "12 train and 3 val" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["rgb16", "rgb:x"])
    def test_bad_modality_spec_exits_config(self, tmp_path, capsys, spec):
        code = main(["synthgen", "--out", str(tmp_path / "x"), "--modalities", spec])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: bad modality")

    def test_repeated_modality_exits_config_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["synthgen", "--out", str(out), "--modalities", "rgb:4,rgb:8"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and "'rgb' given twice" in err
        assert not out.exists()


class TestTrainCommand:
    def test_writes_checkpoint_metrics_scores(self, workspace):
        run = workspace["run"]
        for name in ("checkpoint.ckpt", "metrics.txt", "scores.csv"):
            assert (run / name).exists(), name
        text = (run / "metrics.txt").read_text()
        assert text.startswith("model=satt\nclasses=3\nepochs=2\n")
        assert "wall" not in text
        table = read_scores(run / "scores.csv")
        assert len(table.rows) == 3

    def test_progress_and_summary_lines(self, workspace, tmp_path, capsys):
        data = workspace["data"]
        args = ["train", "--train", str(data / "train.mmf"), "--val", str(data / "val.mmf"),
                "--out", str(tmp_path / "run"), "--epochs", "1", "--batch-size", "4",
                "--satt-heads", "2"]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out
        assert "epoch 0:" in out
        assert "best epoch" in out

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        """Identical flags reproduce metrics and scores down to the byte."""
        data, run = workspace["data"], workspace["run"]
        again = tmp_path / "again"
        args = ["train", "--train", str(data / "train.mmf"), "--val", str(data / "val.mmf"),
                "--out", str(again)] + SMALL_TRAIN
        assert main(args) == EXIT_OK
        for name in ("metrics.txt", "scores.csv", "checkpoint.ckpt"):
            assert (again / name).read_bytes() == (run / name).read_bytes(), name

    def test_failed_metrics_write_keeps_the_old_file(self, workspace, tmp_path, monkeypatch):
        data = workspace["data"]
        out = tmp_path / "run"
        args = ["train", "--train", str(data / "train.mmf"), "--val", str(data / "val.mmf"),
                "--out", str(out)] + SMALL_TRAIN
        assert main(args) == EXIT_OK
        before = (out / "metrics.txt").read_bytes()

        def half_written(self):
            raise ConfigError("report failed midway")

        monkeypatch.setattr(MetricsReport, "to_text", half_written)
        assert main(args) == EXIT_CONFIG
        assert (out / "metrics.txt").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint.ckpt", "metrics.txt",
                                                         "scores.csv"]

    def test_missing_train_file_exits_io(self, workspace, tmp_path, capsys):
        data = workspace["data"]
        code = main(["train", "--train", str(tmp_path / "absent.mmf"),
                     "--val", str(data / "val.mmf"), "--out", str(tmp_path / "r"), "--quiet"])
        assert code == EXIT_IO

    def test_non_finite_loss_exits_numeric_and_writes_nothing(self, workspace, tmp_path,
                                                               capsys):
        """A diverging step size stops training at the first NaN loss, before any artifact."""
        data, out = workspace["data"], tmp_path / "r"
        code = main(["train", "--train", str(data / "train.mmf"), "--val", str(data / "val.mmf"),
                     "--out", str(out), "--model", "txn", "--optimizer", "sgd", "--lr", "1e150",
                     "--batch-size", "4", "--quiet"])
        err = capsys.readouterr().err
        assert code == EXIT_GRADCHECK
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "epoch 0, batch 2" in err
        assert not out.exists()

    def test_validation_id_a_score_table_cannot_hold_exits_config_and_writes_nothing(
            self, workspace, tmp_path, capsys):
        samples = read_mmf(workspace["data"] / "val.mmf")
        samples[1].video_id = "bad\nid"
        write_mmf(tmp_path / "newline.mmf", samples)
        out = tmp_path / "r"
        code = main(["train", "--train", str(workspace["data"] / "train.mmf"),
                     "--val", str(tmp_path / "newline.mmf"), "--out", str(out),
                     "--model", "meanpool", "--epochs", "1", "--quiet"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: video id 'bad\\nid' cannot be written to a score table\n")
        assert not out.exists()

    def test_diverging_run_prints_only_its_error_line(self, workspace, tmp_path):
        """In a process of its own, where no warnings filter applies, stderr is one line."""
        data = workspace["data"]
        src = str(Path(seqcls.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "seqcls.cli", "train", "--train", str(data / "train.mmf"),
             "--val", str(data / "val.mmf"), "--out", str(tmp_path / "r"), "--model", "txn",
             "--optimizer", "sgd", "--lr", "1e150", "--batch-size", "4", "--quiet"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_GRADCHECK
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error:"), proc.stderr

    @pytest.mark.parametrize("model, flag, value, field", [
        ("txn", "--txn-channels", 100000, "block_channels"),
        ("txn", "--txn-channels", MAX_BLOCK_CHANNELS + 1, "block_channels"),
        ("txn", "--txn-kernel", 100000001, "kernel_size"),
        ("txn", "--txn-kernel", MAX_KERNEL_SIZE + 2, "kernel_size"),
        ("txn", "--txn-blocks", 100000000, "num_blocks"),
        ("txn", "--txn-blocks", MAX_NUM_BLOCKS + 1, "num_blocks"),
        ("satt", "--satt-heads", 1000000000, "num_heads"),
        ("satt", "--satt-heads", MAX_NUM_HEADS + 1, "num_heads")])
    def test_oversized_model_exits_config_before_the_build(self, workspace, tmp_path, capsys,
                                                           monkeypatch, model, flag, value, field):
        """A train config's sizes have no arrays behind them, so the model's bounds hold them.

        Only values the bound rejects are used, and building the model is
        refused, so no case here can reach an allocation of that size.
        """
        def refuse(*args, **kwargs):
            raise AssertionError("model built from an unbounded size")

        monkeypatch.setattr(MODELS[model], "init", refuse)
        data, out = workspace["data"], tmp_path / "r"
        code = main(["train", "--train", str(data / "train.mmf"), "--val", str(data / "val.mmf"),
                     "--out", str(out), "--model", model, "--quiet", flag, str(value)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("error:") and f"{field} must" in err
        assert not out.exists()

    @pytest.mark.parametrize("model, flag, value", [
        ("txn", "--txn-channels", 100000), ("txn", "--txn-segments", 31),
        ("satt", "--satt-heads", 0), ("satt", "--satt-alpha", -1.0),
        ("satt", "--satt-alpha", float("inf")), ("satt", "--seed", -1)])
    def test_rejected_size_wins_over_a_missing_file(self, workspace, tmp_path, capsys,
                                                   model, flag, value):
        """Model sizes and the seed are checked with the config, before either split is read."""
        code = main(["train", "--train", str(tmp_path / "missing.mmf"),
                     "--val", str(workspace["data"] / "val.mmf"), "--out", str(tmp_path / "r"),
                     "--model", model, "--quiet", flag, str(value)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("error:") and "missing.mmf" not in err

    @pytest.mark.parametrize("out, text", [
        ("taken", "[Errno 17] File exists"), ("taken/sub", "[Errno 20] Not a directory"),
        ("taken/sub/deeper", "[Errno 20] Not a directory"),
        ("", "[Errno 2] No such file or directory")])
    def test_unusable_out_exits_io_before_any_data_is_read(self, workspace, tmp_path, capsys,
                                                           monkeypatch, out, text):
        """An --out that no directory can be made at is refused before training."""
        def refuse(*args, **kwargs):
            raise AssertionError("data read before --out was checked")

        monkeypatch.setattr(cli, "train_from_files", refuse)
        (tmp_path / "taken").write_text("keep")
        data = workspace["data"]
        path = str(tmp_path / out) if out else out
        code = main(["train", "--train", str(data / "train.mmf"), "--val", str(data / "val.mmf"),
                     "--out", path, "--quiet"])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err == f"error: {text}: {path!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert (tmp_path / "taken").read_text() == "keep"

    def test_out_check_creates_nothing(self, tmp_path):
        """Existing directories and paths under them pass; nothing is made."""
        for path in (tmp_path, tmp_path / "new", tmp_path / "new" / "deeper" / ""):
            cli._check_out(str(path), directory=True)
        cli._check_out(str(tmp_path / "s.csv"), directory=False)
        assert list(tmp_path.iterdir()) == []

    def test_bad_flag_value_exits_config(self, workspace, tmp_path):
        data = workspace["data"]
        code = main(["train", "--train", str(data / "train.mmf"),
                     "--val", str(data / "val.mmf"), "--out", str(tmp_path / "r"),
                     "--lr", "fast", "--quiet"])
        assert code == EXIT_CONFIG


class TestConfigFile:
    def test_file_overrides_defaults_and_flags_override_file(self, tmp_path):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("# comment\nlr = 0.5\nepochs = 7  # trailing comment\n")
        values = parse_config_file(cfg_path)
        assert values == {"lr": "0.5", "epochs": "7"}
        cfg = make_train_config(values, {"lr": "0.25"})
        assert cfg.lr == 0.25  # flag wins
        assert cfg.epochs == 7  # file wins over default
        assert cfg.batch_size == 16  # default survives

    def test_unknown_key_names_file_and_line(self, tmp_path):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("lr = 0.1\nwarmup = 5\n")
        with pytest.raises(ConfigError, match=r"train.cfg:2"):
            parse_config_file(cfg_path)

    def test_repeated_key_exits_config_naming_file_key_and_both_lines(self, workspace, tmp_path,
                                                                      capsys):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("epochs = 1\nlr = 0.1\n\nepochs = 2\n")
        data = workspace["data"]
        code = main(["train", "--train", str(data / "train.mmf"), "--val", str(data / "val.mmf"),
                     "--out", str(tmp_path / "run"), "--config", str(cfg_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {cfg_path}:4: config key 'epochs' already set at line 1\n")
        assert not (tmp_path / "run").exists()

    def test_malformed_line_rejected(self, tmp_path):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("just words\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg_path)

    def test_bytes_that_are_not_utf8_exit_config_with_one_line(self, workspace, tmp_path,
                                                              capsys):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_bytes(b"lr = 0.1\nepochs = \xff\n")
        data = workspace["data"]
        code = main(["train", "--train", str(data / "train.mmf"), "--val", str(data / "val.mmf"),
                     "--out", str(tmp_path / "run"), "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "train.cfg" in err and "not valid utf-8 (at byte offset 18)" in err
        assert not (tmp_path / "run").exists()

    def test_type_coercion_failure_rejected(self):
        with pytest.raises(ConfigError):
            make_train_config({"epochs": "many"}, {})

    def test_every_field_is_read_as_its_defaults_type(self):
        """Every default is exactly an int, a float or a str, and the string of each
        default reads back as that default, so the command line and the type rule
        of ``TrainConfig`` cannot drift apart."""
        defaults = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
        assert all(type(d) in (int, float, str) for d in defaults.values()), defaults
        cfg = make_train_config({name: str(d) for name, d in defaults.items()}, {})
        assert cfg == TrainConfig()

    def test_config_file_drives_training(self, workspace, tmp_path, capsys):
        data = workspace["data"]
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("epochs = 1\nbatch_size = 4\nsatt_heads = 2\n")
        code = main(["train", "--train", str(data / "train.mmf"),
                     "--val", str(data / "val.mmf"), "--out", str(tmp_path / "run"),
                     "--config", str(cfg_path), "--quiet"])
        assert code == EXIT_OK
        assert "epochs=1" in (tmp_path / "run" / "metrics.txt").read_text()


class TestEvalCommand:
    def test_scores_match_training_output(self, workspace, tmp_path, capsys):
        data, run = workspace["data"], workspace["run"]
        out = tmp_path / "eval_scores.csv"
        code = main(["eval", "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--data", str(data / "val.mmf"), "--out", str(out)])
        assert code == EXIT_OK
        assert "top1=" in capsys.readouterr().out
        assert out.read_bytes() == (run / "scores.csv").read_bytes()

    def test_threaded_eval_is_byte_identical(self, workspace, tmp_path):
        data, run = workspace["data"], workspace["run"]
        single, pooled = tmp_path / "t1.csv", tmp_path / "t4.csv"
        base = ["eval", "--checkpoint", str(run / "checkpoint.ckpt"),
                "--data", str(data / "val.mmf")]
        assert main(base + ["--out", str(single), "--threads", "1"]) == EXIT_OK
        assert main(base + ["--out", str(pooled), "--threads", "4"]) == EXIT_OK
        assert single.read_bytes() == pooled.read_bytes()

    @pytest.mark.parametrize("model", ["satt", "txn", "meanpool"])
    def test_data_missing_a_modality_exits_config(self, two_modality_runs, model, capsys):
        """A checkpoint needing flow, scored on rgb-only data: exit 2, one line, no traceback."""
        code = main(["eval", "--checkpoint", str(two_modality_runs / model / "checkpoint.ckpt"),
                     "--data", str(two_modality_runs / "rgb_only" / "val.mmf")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("error:") and "flow" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("out, text", [
        (".", "[Errno 21] Is a directory"), ("absent/s.csv", "[Errno 2] No such file or directory"),
        ("taken/s.csv", "[Errno 20] Not a directory")])
    def test_unusable_out_exits_io_before_any_data_is_read(self, workspace, tmp_path, capsys,
                                                           monkeypatch, out, text):
        def refuse(*args, **kwargs):
            raise AssertionError("data read before --out was checked")

        for name in ("load_model", "read_mmf", "evaluate"):
            monkeypatch.setattr(cli, name, refuse)
        (tmp_path / "taken").write_text("keep")
        path = tmp_path / out
        code = main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.ckpt"),
                     "--data", str(workspace["data"] / "val.mmf"), "--out", str(path)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"error: {text}: {str(path)!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    @pytest.mark.parametrize("model", ["satt", "txn", "meanpool"])
    @pytest.mark.parametrize("fault", ["missing flow", "wrong rgb dim"])
    def test_bad_video_in_a_late_chunk_exits_config_and_writes_nothing(
            self, two_modality_runs, tmp_path, capsys, model, fault):
        """Scoring prepares chunk by chunk, so the fault surfaces after earlier
        chunks were scored: still exit 2 with one line, and no score file."""
        data = two_modality_runs / "data"
        samples = []
        for copy in range(3):
            for s in read_mmf(data / "train.mmf") + read_mmf(data / "val.mmf"):
                s.video_id = f"{s.video_id}.{copy}"
                samples.append(s)
        assert len(samples) > 2 * EVAL_CHUNK
        bad = samples[-1]  # frame counts tie, so it is scored in the last chunk
        if fault == "missing flow":
            bad.sequences = [q for q in bad.sequences if q.modality != "flow"]
        else:
            rgb = next(q for q in bad.sequences if q.modality == "rgb")
            rgb.features = np.zeros((len(rgb.features), 5))
        write_mmf(tmp_path / "late.mmf", samples)
        out = tmp_path / "s.csv"
        code = main(["eval", "--checkpoint", str(two_modality_runs / model / "checkpoint.ckpt"),
                     "--data", str(tmp_path / "late.mmf"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("error:")
        assert ("flow" if fault == "missing flow" else "expected [T x 4]") in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["late.mmf"]

    @staticmethod
    def eval_rewritten(runs, model, tmp_path, edit) -> int:
        """Score a copy of a model's checkpoint after edit(arrays, meta)."""
        arrays, meta = read_checkpoint(runs / model / "checkpoint.ckpt")
        edit(arrays, meta)
        path = tmp_path / "edited.ckpt"
        write_checkpoint(path, arrays, meta)
        return main(["eval", "--checkpoint", str(path),
                     "--data", str(runs / "data" / "val.mmf")])

    @pytest.mark.parametrize("model, key, drop", [
        ("satt", "alpha", True), ("txn", "block_channels", True),
        ("satt", "kernel_size", False), ("meanpool", "num_heads", False)])
    def test_bad_model_kwargs_exit_config(self, two_modality_runs, tmp_path, capsys,
                                          model, key, drop):
        """A missing or unknown model_kwargs key: exit 2, one line naming it."""
        def edit(arrays, meta):
            if drop:
                del meta["model_kwargs"][key]
            else:
                meta["model_kwargs"][key] = 3

        code = self.eval_rewritten(two_modality_runs, model, tmp_path, edit)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("error:") and key in err

    @pytest.mark.parametrize("model, key, value", [
        ("satt", "alpha", float("inf")), ("satt", "num_heads", float("nan")),
        ("txn", "block_channels", float("-inf"))])
    def test_non_finite_model_kwargs_exit_config(self, two_modality_runs, tmp_path, capsys,
                                                 model, key, value):
        """JSON NaN and Infinity in model_kwargs: exit 2 with one line, no warning or traceback."""
        def edit(arrays, meta):
            meta["model_kwargs"][key] = value

        code = self.eval_rewritten(two_modality_runs, model, tmp_path, edit)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and "must be finite numbers" in err

    @pytest.mark.parametrize("model, edits", [
        ("txn", {"pad_len": 6.5, "num_segments": 3.9}), ("txn", {"kernel_size": 3.0}),
        ("satt", {"num_heads": True}), ("satt", {"alpha": 1}), ("satt", {})])
    def test_model_kwargs_of_the_wrong_type_exit_config(self, two_modality_runs, tmp_path,
                                                        capsys, monkeypatch, model, edits):
        """A size that is not an int, or an alpha that is not a float: exit 2 before the build.

        No such value contradicts the arrays: pad_len and num_segments shape
        none, 3.0 == 3, and True == 1 on a checkpoint rebuilt with one head
        (which, unedited, scores with exit 0).
        """
        def refuse(*args, **kwargs):
            raise AssertionError("model built from a model_kwargs value of the wrong type")

        def edit(arrays, meta):
            kwargs = meta["model_kwargs"]
            if model == "satt":
                kwargs["num_heads"] = 1
                one = build_model(model, meta["modalities"], meta["num_classes"], kwargs, rng(0))
                arrays.clear()
                arrays.update(one.checkpoint_arrays())
            kwargs.update(edits)
            if edits:
                monkeypatch.setattr(MODELS[model], "from_kwargs", refuse)  # after the rebuild

        code = self.eval_rewritten(two_modality_runs, model, tmp_path, edit)
        err = capsys.readouterr().err
        if not edits:
            assert (code, err) == (EXIT_OK, "")
            return
        key, value = next(iter(edits.items()))
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("error:")
        assert f"{model} {key} must be of type" in err and f"got {value!r}" in err

    @pytest.mark.parametrize("model, key, value", [
        ("satt", "num_heads", 10**9), ("satt", "num_heads", 1e300),
        ("txn", "block_channels", 10**9), ("txn", "kernel_size", 1e300),
        ("txn", "num_blocks", 10**9), ("txn", "num_blocks", 1e300),
        ("satt", "num_classes", 10**12), ("txn", "num_classes", 10**12),
        ("meanpool", "num_classes", 10**12),
        ("satt", "rgb", 10**12), ("txn", "rgb", 10**9), ("meanpool", "rgb", 10**12)])
    def test_huge_sizes_exit_config_before_the_build(self, two_modality_runs, tmp_path, capsys,
                                                     monkeypatch, model, key, value):
        """A size the arrays contradict is refused before anything is built or allocated.

        The sizes are model_kwargs entries, the class count and the rgb
        feature dim; meanpool's arrays fix only the summed dims (rgb 4 + flow 3).
        """
        def refuse(*args, **kwargs):
            raise AssertionError("model built from a size its arrays contradict")

        monkeypatch.setattr(MODELS[model], "from_kwargs", refuse)

        def edit(arrays, meta):
            if key == "num_classes":
                meta[key] = value
            elif key == "rgb":
                meta["modalities"] = [[m, value if m == "rgb" else d] for m, d in meta["modalities"]]
            else:
                meta["model_kwargs"][key] = value

        code = self.eval_rewritten(two_modality_runs, model, tmp_path, edit)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("error:")
        if key == "rgb":
            key, value = ("summed dims", value + 3) if model == "meanpool" else ("dim of 'rgb'", value)
        assert f"{key!r}: {value!r}" in err and "disagree with the checkpoint arrays" in err

    @pytest.mark.parametrize("key, value", [
        ("pad_len", 10**9), ("pad_len", 1e300), ("num_segments", 10**9)])
    def test_huge_txn_clip_exits_config_before_the_forward(self, two_modality_runs, tmp_path,
                                                           capsys, monkeypatch, key, value):
        """pad_len and num_segments shape no stored array, so the arrays cannot contradict
        them; build_model's bounds hold them before the model is built, at train and at eval.

        The model is built for real here; only its prepare, which would allocate
        a [pad_len x D] clip per video, and its forward are refused.
        """
        def refuse(*args, **kwargs):
            raise AssertionError("txn prepare or forward ran with an unbounded clip length")

        monkeypatch.setattr(MODELS["txn"], "prepare", refuse)
        monkeypatch.setattr(MODELS["txn"], "forward_batch", refuse)

        def edit(arrays, meta):
            meta["model_kwargs"][key] = value

        code = self.eval_rewritten(two_modality_runs, "txn", tmp_path, edit)
        eval_err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert eval_err.count("\n") == 1 and eval_err.startswith("error:") and key in eval_err
        if not isinstance(value, int):
            return  # a train flag takes integers only
        data = two_modality_runs / "data"
        flag = {"pad_len": "--txn-pad-len", "num_segments": "--txn-segments"}[key]
        code = main(["train", "--train", str(data / "train.mmf"), "--val", str(data / "val.mmf"),
                     "--out", str(tmp_path / "run"), "--model", "txn", "--quiet",
                     "--txn-pad-len", "6", "--txn-segments", "3", flag, repr(value)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == eval_err
        assert not (tmp_path / "run" / "checkpoint.ckpt").exists()

    @pytest.mark.parametrize("model", ["satt", "txn"])
    def test_missing_size_arrays_exit_config(self, two_modality_runs, tmp_path, capsys, model):
        """Without the arrays that fix its sizes a checkpoint is refused, not built."""
        def edit(arrays, meta):
            for name in [n for n in arrays if n.startswith(("group.", "stream."))]:
                del arrays[name]

        code = self.eval_rewritten(two_modality_runs, model, tmp_path, edit)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and "disagree with the checkpoint arrays" in err

    @pytest.mark.parametrize("model", MODELS)
    def test_repeated_modality_exits_config(self, two_modality_runs, tmp_path, capsys,
                                            monkeypatch, model):
        """Metadata naming rgb twice, every array sized to match: exit 2 before the build.

        The flow arrays go and the classifier takes the rows of two rgb
        modalities, so the arrays agree with every size the metadata states.
        """
        def refuse(*args, **kwargs):
            raise AssertionError("model built with a repeated modality")

        def edit(arrays, meta):
            twin = build_model(model, [("rgb", 4), ("twin", 4)], meta["num_classes"],
                               meta["model_kwargs"], rng(0))
            for name in [n for n in arrays if ".flow." in n]:
                del arrays[name]
            arrays["classifier.w"] = twin.classifier_w.data
            meta["modalities"] = [["rgb", 4], ["rgb", 4]]
            monkeypatch.setattr(MODELS[model], "from_kwargs", refuse)  # after the twin's build

        code = self.eval_rewritten(two_modality_runs, model, tmp_path, edit)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "distinct names" in err and "[['rgb', 4], ['rgb', 4]]" in err

    @pytest.mark.parametrize("key, value", [
        ("modalities", [["rgb"]]), ("modalities", "rgb"), ("modalities", [[4, 4]]),
        ("modalities", [["rgb", 4.0]]), ("modalities", [["rgb", 0]]),
        ("num_classes", "ten"), ("num_classes", 1.5), ("num_classes", 1), ("num_classes", True),
        ("model_kwargs", []), ("model", ["txn"]), ("modalities", [])])
    def test_bad_metadata_types_exit_config(self, two_modality_runs, tmp_path, capsys,
                                            key, value):
        """Metadata of the wrong type: exit 2, one line naming the key and the value."""
        def edit(arrays, meta):
            meta[key] = value

        code = self.eval_rewritten(two_modality_runs, "txn", tmp_path, edit)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and err.startswith("error:")
        assert key in err and repr(value) in err

    @pytest.mark.parametrize("model", ["satt", "txn", "meanpool"])
    def test_non_finite_checkpoint_exits_config(self, two_modality_runs, tmp_path, capsys,
                                                model):
        def edit(arrays, meta):
            for arr in arrays.values():
                arr[...] = float("nan")

        code = self.eval_rewritten(two_modality_runs, model, tmp_path, edit)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.count("\n") == 1 and "non-finite" in err

    def test_duplicate_array_name_exits_io(self, workspace, tmp_path, capsys):
        """A checkpoint that names one array twice is malformed, whichever copy is right."""
        data, run = workspace["data"], workspace["run"]
        arrays, meta = read_checkpoint(run / "checkpoint.ckpt")
        name = next(iter(arrays))
        write_checkpoint(tmp_path / "one.ckpt", {name: arrays[name]}, {})
        write_checkpoint(tmp_path / "none.ckpt", {}, {})
        record = (tmp_path / "one.ckpt").read_bytes()[len((tmp_path / "none.ckpt").read_bytes()):]
        path = tmp_path / "dup.ckpt"
        write_checkpoint(path, arrays, meta)
        blob = bytearray(path.read_bytes())
        count_at = 12 + struct.unpack("<I", blob[8:12])[0]
        blob[count_at:count_at + 4] = struct.pack("<I", len(arrays) + 1)
        path.write_bytes(bytes(blob) + record)
        code = main(["eval", "--checkpoint", str(path), "--data", str(data / "val.mmf")])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.count("\n") == 1 and f"duplicate array name {name!r}" in err

    def test_checkpoint_metadata_that_is_not_json_exits_io(self, workspace, tmp_path, capsys):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"CKP1" + struct.pack("<II", 1, 3) + b"{x}" + struct.pack("<I", 0))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(path), "--data", str(workspace["data"] / "val.mmf")])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err == "error: metadata is not valid json (at byte offset 12)\n"

    def test_missing_checkpoint_exits_io(self, workspace, tmp_path):
        data = workspace["data"]
        code = main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--data", str(data / "val.mmf")])
        assert code == EXIT_IO

    def test_bad_thread_count_exits_config(self, workspace):
        data, run = workspace["data"], workspace["run"]
        code = main(["eval", "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--data", str(data / "val.mmf"), "--threads", "0"])
        assert code == EXIT_CONFIG


class TestFuseCommand:
    def test_self_fusion_reproduces_the_file(self, workspace, tmp_path, capsys):
        """Uniformly fusing a table with itself writes identical bytes."""
        run = workspace["run"]
        out = tmp_path / "fused.csv"
        scores = str(run / "scores.csv")
        code = main(["fuse", "--scores", scores, scores, "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_bytes() == (run / "scores.csv").read_bytes()

    def test_weighted_fusion_with_labels_reports_accuracy(self, workspace, tmp_path, capsys):
        data, run = workspace["data"], workspace["run"]
        out = tmp_path / "fused.csv"
        scores = str(run / "scores.csv")
        code = main(["fuse", "--scores", scores, scores, "--weights", "0.7,0.3",
                     "--out", str(out), "--labels", str(data / "val_labels.csv")])
        assert code == EXIT_OK
        assert "top1=" in capsys.readouterr().out

    def test_ids_with_commas_survive_eval_and_fuse(self, workspace, tmp_path, capsys):
        """eval --out writes a table that fuse reads back, whatever commas the ids hold."""
        samples = read_mmf(workspace["data"] / "val.mmf")
        for i, s in enumerate(samples):
            s.video_id = f"clip,{i},part"
        write_mmf(tmp_path / "commas.mmf", samples)
        scores, fused = tmp_path / "s.csv", tmp_path / "f.csv"
        assert main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.ckpt"),
                     "--data", str(tmp_path / "commas.mmf"), "--out", str(scores)]) == EXIT_OK
        assert main(["fuse", "--scores", str(scores), str(scores), "--out", str(fused)]) == EXIT_OK
        assert fused.read_bytes() == scores.read_bytes()
        assert list(read_scores(fused).rows) == [s.video_id for s in samples]

    def test_id_a_table_cannot_hold_exits_config(self, workspace, tmp_path, capsys):
        samples = read_mmf(workspace["data"] / "val.mmf")
        samples[1].video_id = "two\nlines"
        write_mmf(tmp_path / "newline.mmf", samples)
        code = main(["eval", "--checkpoint", str(workspace["run"] / "checkpoint.ckpt"),
                     "--data", str(tmp_path / "newline.mmf"), "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_CONFIG
        assert "cannot be written" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_bad_weights_exit_config(self, workspace, tmp_path):
        scores = str(workspace["run"] / "scores.csv")
        out = str(tmp_path / "f.csv")
        assert main(["fuse", "--scores", scores, scores, "--weights", "a,b",
                     "--out", out]) == EXIT_CONFIG
        assert main(["fuse", "--scores", scores, scores, "--weights", "0.9,0.9",
                     "--out", out]) == EXIT_CONFIG
        assert main(["fuse", "--scores", scores, scores, "--weights", "1.0,nan",
                     "--out", out]) == EXIT_CONFIG
        assert main(["fuse", "--scores", scores, "--weights", "nan", "--out", out]) == EXIT_CONFIG
        assert not os.path.exists(out)

    def test_labels_that_are_not_utf8_exit_io_with_one_line(self, workspace, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_bytes((workspace["data"] / "val_labels.csv").read_bytes() + b"\xff,1\n")
        scores = str(workspace["run"] / "scores.csv")
        code = main(["fuse", "--scores", scores, scores, "--out", str(tmp_path / "f.csv"),
                     "--labels", str(labels)])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.count("\n") == 1 and err.startswith("error: labels file is not valid utf-8")

    def test_fused_row_past_the_sum_tolerance_exits_config(self, tmp_path, capsys):
        """Weights may sum to 1 + 9e-10, which pushes a row at the edge of the sum rule past it."""
        a, b, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "f.csv"
        a.write_text("#classes=2\nv,0.5,0.5\n")
        b.write_text("#classes=2\nv,0.5000005,0.5000005\n")
        code = main(["fuse", "--scores", str(a), str(b), "--weights", "0,1.0000000009",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: video 'v': scores sum to 1.000001")
        assert not out.exists()

    def test_unreadable_scores_exit_io(self, tmp_path):
        bad = tmp_path / "bad.csv"
        for text in ("no header\n", "#classes=2\nv0,nan,nan\n"):
            bad.write_text(text)
            assert main(["fuse", "--scores", str(bad), "--out",
                         str(tmp_path / "f.csv")]) == EXIT_IO


class TestGradcheckCommand:
    def test_single_case_passes(self, capsys):
        assert main(["gradcheck", "--op", "softmax_sharp", "--seeds", "0,1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "softmax_sharp" in out
        assert "2/2 case-runs passed" in out

    def test_unknown_case_exits_config(self, capsys):
        assert main(["gradcheck", "--op", "not_an_op"]) == EXIT_CONFIG

    def test_impossible_tolerance_exits_gradcheck(self, capsys):
        """A zero tolerance cannot be met, so the command signals failure."""
        code = main(["gradcheck", "--op", "mul", "--seeds", "0", "--tol", "0"])
        assert code == EXIT_GRADCHECK

    @pytest.mark.parametrize("flag, message", [
        ("--step=inf", "finite-difference step"), ("--step=nan", "finite-difference step"),
        ("--tol=inf", "tolerance"), ("--tol=nan", "tolerance")])
    def test_non_finite_step_or_tolerance_exits_config(self, capsys, flag, message):
        """A step or tolerance that is not finite checks nothing."""
        assert main(["gradcheck", "--op", "relu", "--seeds", "0", flag]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {message}")


@pytest.mark.parametrize("seeds", ["a", "", "0,,1"])
def test_bad_gradcheck_seeds_exit_config_with_one_line(capsys, seeds):
    assert main(["gradcheck", "--op", "relu", f"--seeds={seeds}"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: bad seeds {seeds!r}\n"


@pytest.mark.parametrize("command", ["synthgen", "train", "gradcheck"])
def test_negative_seed_exits_config_with_one_line(workspace, tmp_path, capsys, command):
    out = tmp_path / "out"
    data = workspace["data"]
    argv = {"synthgen": ["synthgen", "--out", str(out), "--seed", "-1"],
            "train": ["train", "--train", str(data / "train.mmf"), "--val",
                      str(data / "val.mmf"), "--out", str(out), "--seed", "-1", "--quiet"],
            "gradcheck": ["gradcheck", "--op", "relu", "--seeds=-1"]}[command]
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_out_of_memory_exits_config_with_one_line(workspace, tmp_path, capsys, monkeypatch,
                                                  command):
    """Sizes from a file can multiply past any memory; that is one line, not a traceback."""
    def no_memory(*args, **kwargs):  # never allocates: a real one could wake the OOM killer
        raise MemoryError("Unable to allocate 128. GiB for an array with shape (4, 4294967296)")

    monkeypatch.setattr("seqcls.cli.train_from_files", no_memory)
    monkeypatch.setattr("seqcls.cli.load_model", no_memory)
    data, out = workspace["data"], tmp_path / "out"
    argv = {"train": ["train", "--train", str(data / "train.mmf"), "--val",
                      str(data / "val.mmf"), "--out", str(out), "--quiet"],
            "eval": ["eval", "--checkpoint", str(workspace["run"] / "checkpoint.ckpt"),
                     "--data", str(data / "val.mmf")]}[command]
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == ("error: out of memory: Unable to allocate 128. GiB for an array "
                   "with shape (4, 4294967296)\n")
    assert not out.exists()


class TestArgparse:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
