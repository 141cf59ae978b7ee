"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import seqcls

from seqcls.cli import (
    EXIT_CONFIG,
    EXIT_GRADCHECK,
    EXIT_IO,
    EXIT_OK,
    main,
    make_train_config,
    parse_config_file,
)
from seqcls.data import read_checkpoint, read_labels, read_mmf, write_checkpoint
from seqcls.errors import ConfigError
from seqcls.fusion import read_scores

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

    def test_bad_modality_spec_exits_config(self, tmp_path, capsys):
        code = main(["synthgen", "--out", str(tmp_path / "x"), "--modalities", "rgb16"])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err


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

    def test_malformed_line_rejected(self, tmp_path):
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("just words\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg_path)

    def test_type_coercion_failure_rejected(self):
        with pytest.raises(ConfigError):
            make_train_config({"epochs": "many"}, {})

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

    @pytest.mark.parametrize("key, value", [
        ("modalities", [["rgb"]]), ("modalities", "rgb"), ("modalities", [[4, 4]]),
        ("modalities", [["rgb", 4.0]]), ("modalities", [["rgb", 0]]),
        ("num_classes", "ten"), ("num_classes", 1.5), ("num_classes", 1), ("num_classes", True),
        ("model_kwargs", []), ("model", ["txn"])])
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

    def test_bad_weights_exit_config(self, workspace, tmp_path):
        scores = str(workspace["run"] / "scores.csv")
        out = str(tmp_path / "f.csv")
        assert main(["fuse", "--scores", scores, scores, "--weights", "a,b",
                     "--out", out]) == EXIT_CONFIG
        assert main(["fuse", "--scores", scores, scores, "--weights", "0.9,0.9",
                     "--out", out]) == EXIT_CONFIG

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


class TestArgparse:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
