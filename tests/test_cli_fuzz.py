"""Corrupt files through the command line: a clean exit code and one error line.

Truncated, bit-flipped and metadata-mutated containers, checkpoints, score
tables, labels files and config files go through ``cli.main`` in-process.  Every run must exit with
2, 3 or 4 and print exactly one ``error:`` line to stderr, never a
traceback.  A mutation can leave a valid file (a flipped bit in a float
usually does); such a run exits 0 and prints nothing to stderr.  Truncating
a binary file always breaks it.  One subprocess run checks that the same
holds outside pytest's warning and output capture.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import seqcls
from seqcls.cli import EXIT_CONFIG, EXIT_GRADCHECK, EXIT_IO, EXIT_OK, main
from seqcls.data import read_checkpoint

GEN = ["--classes", "3", "--videos-per-class", "5", "--frames", "6", "--signal-frames", "2",
       "--modalities", "m:4,n:3", "--seed", "3"]
TRAIN = ["--epochs", "1", "--batch-size", "4", "--satt-heads", "2", "--txn-pad-len", "6",
         "--txn-segments", "3", "--txn-channels", "4", "--quiet"]
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

DELETE = "<delete>"
TRUNCATE = st.tuples(st.just("truncate"), st.integers(0, 2**20))
FLIP = st.tuples(st.just("flip"), st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 7)),
                                           min_size=1, max_size=3))
U32 = st.one_of(st.integers(0, 9), st.sampled_from([2**31, 2**32 - 1]))
# sizes stay small: load_model checks the sizes that shape arrays against the
# checkpoint's arrays before it builds, but pad_len shapes no array, and a
# pad_len of 10**9 would allocate that much when the data is scored
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 12),
                        st.sampled_from([0.5, -1.5, math.nan, math.inf, -math.inf]),
                        st.text(max_size=3), st.lists(st.integers(0, 5), max_size=3),
                        st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))
EXTENTS = st.lists(st.sampled_from([0, 1, 2, 3, 4, 2**31, 2**32 - 1]), max_size=4).map(tuple)
SCORE_FIELDS = st.sampled_from(["", " ", "nan", "inf", "-0", "0", "1", "1e999", "0.5,0.5", "abc",
                                "#classes=3", "#classes=1", "#classes=x", "\x00", "\r"])


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """A valid container, a satt and a txn checkpoint with their score tables, and labels."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    assert main(["synthgen", "--out", str(data), *GEN]) == EXIT_OK
    for model in ("satt", "txn"):
        assert main(["train", "--train", str(data / "train.mmf"), "--val", str(data / "val.mmf"),
                     "--out", str(root / model), "--model", model, *TRAIN]) == EXIT_OK
    return root


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_exit(code: int, err: str) -> None:
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_GRADCHECK), (code, err)
    if code == EXIT_OK:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.startswith("error: "), err


def flip_or_truncate(blob: bytes, mutation) -> bytes:
    kind, arg = mutation
    if kind == "truncate":
        return blob[:arg % len(blob)]
    flipped = bytearray(blob)
    for pos, bit in arg:
        flipped[pos % len(blob)] ^= 1 << bit
    return bytes(flipped)


def mmf_header_fields(blob: bytes) -> list[int]:
    """Byte offsets of every u32 header field of a valid container."""
    fields, pos = [4, 8], 12
    for _ in range(struct.unpack_from("<I", blob, 8)[0]):
        fields.append(pos)
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
        fields += [pos, pos + 4]
        count = struct.unpack_from("<I", blob, pos + 4)[0]
        pos += 8
        for _ in range(count):
            fields.append(pos)
            pos += 4 + struct.unpack_from("<I", blob, pos)[0]
            fields += [pos, pos + 4]
            t, d = struct.unpack_from("<II", blob, pos)
            pos += 8 + 4 * t * d
    return fields


def checkpoint_bytes(arrays: dict, meta, forged: tuple[int, tuple] | None = None) -> bytes:
    """Serialize like write_checkpoint; forged = (array index, extents) misstates one shape."""
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    out = [b"CKP1", struct.pack("<II", 1, len(meta_blob)), meta_blob,
           struct.pack("<I", len(arrays))]
    for i, (name, arr) in enumerate(arrays.items()):
        shape = forged[1] if forged and i == forged[0] % len(arrays) else arr.shape
        nb = name.encode("utf-8")
        out += [struct.pack("<I", len(nb)), nb, struct.pack("<I", len(shape)),
                struct.pack(f"<{len(shape)}I", *shape), arr.astype("<f8").tobytes()]
    return b"".join(out)


def mutate_meta(meta, path: list[int], value):
    """Walk path (indices into sorted dict keys or list items); delete or replace the end."""
    node = meta
    for depth, i in enumerate(path):
        if not isinstance(node, (dict, list)) or not node:
            return
        key = sorted(node)[i % len(node)] if isinstance(node, dict) else i % len(node)
        if depth == len(path) - 1 or not isinstance(node[key], (dict, list)):
            if value == DELETE:
                del node[key]
            else:
                node[key] = value
            return
        node = node[key]


class TestCorruptInputsExitCleanly:
    @FUZZ
    @given(mutation=st.one_of(TRUNCATE, FLIP,
                              st.tuples(st.just("field"), st.integers(0, 2**10), U32)))
    def test_container(self, good, mutation):
        blob = (good / "data" / "val.mmf").read_bytes()
        if mutation[0] == "field":
            fields = mmf_header_fields(blob)
            at = fields[mutation[1] % len(fields)]
            bad = blob[:at] + struct.pack("<I", mutation[2]) + blob[at + 4:]
        else:
            bad = flip_or_truncate(blob, mutation)
        path = good / "fuzz.mmf"
        path.write_bytes(bad)
        code, err = run_cli(["eval", "--checkpoint", str(good / "txn" / "checkpoint.ckpt"),
                             "--data", str(path), "--out", str(good / "fuzz_scores.csv")])
        check_exit(code, err)
        if mutation[0] == "truncate":
            assert code == EXIT_IO

    @FUZZ
    @given(model=st.sampled_from(["satt", "txn"]),
           mutation=st.one_of(TRUNCATE, FLIP,
                              st.tuples(st.just("meta"), st.lists(st.integers(0, 7), min_size=1,
                                                                  max_size=3),
                                        st.one_of(st.just(DELETE), JSON_VALUES)),
                              st.tuples(st.just("extents"), st.integers(0, 63), EXTENTS)))
    @example(model="txn", mutation=("extents", 0, (2**31, 2**31, 4)))
    def test_checkpoint(self, good, model, mutation):
        blob = (good / model / "checkpoint.ckpt").read_bytes()
        if mutation[0] in ("meta", "extents"):
            arrays, meta = read_checkpoint(good / model / "checkpoint.ckpt")
            if mutation[0] == "meta":
                mutate_meta(meta, mutation[1], mutation[2])
                bad = checkpoint_bytes(arrays, meta)
            else:
                bad = checkpoint_bytes(arrays, meta, forged=mutation[1:])
        else:
            bad = flip_or_truncate(blob, mutation)
        path = good / "fuzz.ckpt"
        path.write_bytes(bad)
        code, err = run_cli(["eval", "--checkpoint", str(path),
                             "--data", str(good / "data" / "val.mmf")])
        check_exit(code, err)
        if mutation[0] == "truncate":
            assert code == EXIT_IO

    @FUZZ
    @given(model=st.sampled_from(["satt", "txn"]),
           mutation=st.one_of(TRUNCATE, FLIP,
                              st.tuples(st.just("edit"), st.integers(0, 2**10),
                                        st.integers(0, 15), SCORE_FIELDS),
                              st.tuples(st.just("repeat"), st.integers(0, 2**10))))
    @example(model="satt", mutation=("flip", [(30, 7)]))  # a byte that is not utf-8
    def test_score_table(self, good, model, mutation):
        text = (good / model / "scores.csv").read_text()
        if mutation[0] in ("edit", "repeat"):
            lines = text.split("\n")
            i = mutation[1] % len(lines)
            if mutation[0] == "edit":
                fields = lines[i].split(",")
                fields[mutation[2] % len(fields)] = mutation[3]
                lines[i] = ",".join(fields)
            else:
                lines.insert(i, lines[i])
            bad = "\n".join(lines).encode("utf-8")
        else:
            bad = flip_or_truncate(text.encode("utf-8"), mutation)
        path = good / "fuzz.csv"
        path.write_bytes(bad)
        code, err = run_cli(["fuse", "--scores", str(path), str(good / model / "scores.csv"),
                             "--out", str(good / "fuzz_fused.csv"),
                             "--labels", str(good / "data" / "val_labels.csv")])
        check_exit(code, err)

    @FUZZ
    @given(mutation=st.one_of(TRUNCATE, FLIP))
    @example(mutation=("flip", [(5, 7)]))  # a byte that is not utf-8
    def test_labels(self, good, mutation):
        blob = (good / "data" / "val_labels.csv").read_bytes()
        path = good / "fuzz_labels.csv"
        path.write_bytes(flip_or_truncate(blob, mutation))
        scores = str(good / "satt" / "scores.csv")
        code, err = run_cli(["fuse", "--scores", scores, scores,
                             "--out", str(good / "fuzz_fused.csv"), "--labels", str(path)])
        check_exit(code, err)

    @FUZZ
    @given(mutation=st.one_of(TRUNCATE, FLIP))
    @example(mutation=("flip", [(3, 7)]))  # a byte that is not utf-8
    def test_config(self, good, mutation):
        """Flags fix every size, so a mutated config file cannot make training large."""
        blob = b"# fuzzed\nmodel = satt\noptimizer = adam\nlr = 0.05\nseed = 3\n"
        path = good / "fuzz.cfg"
        path.write_bytes(flip_or_truncate(blob, mutation))
        code, err = run_cli(["train", "--train", str(good / "data" / "train.mmf"),
                             "--val", str(good / "data" / "val.mmf"),
                             "--out", str(good / "fuzz_run"), "--config", str(path),
                             *TRAIN, "--txn-kernel", "3", "--txn-blocks", "1"])
        check_exit(code, err)

    def test_overflowing_extents_exit_io_in_a_process_of_its_own(self, good):
        arrays, meta = read_checkpoint(good / "txn" / "checkpoint.ckpt")
        path = good / "overflow.ckpt"
        path.write_bytes(checkpoint_bytes(arrays, meta, forged=(0, (2**31, 2**31, 4))))
        src = str(Path(seqcls.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "seqcls.cli", "eval", "--checkpoint", str(path),
             "--data", str(good / "data" / "val.mmf")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_IO
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.startswith("error: truncated file while reading data of")
        assert "(at byte offset " in proc.stderr
