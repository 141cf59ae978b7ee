"""Unit tests for the binary container, labels, generator, and checkpoints."""

from __future__ import annotations

import contextlib
import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import seqcls.data as data
import seqcls.fusion as fusion
from seqcls.data import (
    FeatureSequence,
    SynthConfig,
    VideoSample,
    atomic_write,
    batch_iter,
    modality_dims,
    read_checkpoint,
    read_labels,
    read_mmf,
    synth_generate,
    synth_prototypes,
    write_checkpoint,
    write_labels,
    write_mmf,
)
from seqcls.errors import ConfigError, DataError, FormatError
from seqcls.fusion import ScoreTable, write_scores


def sample(video_id="v0", label=0, **modalities) -> VideoSample:
    seqs = [FeatureSequence(modality=m, features=f) for m, f in modalities.items()]
    return VideoSample(video_id=video_id, label=label, sequences=seqs)


class TestFeatureStructures:
    def test_features_coerced_to_float64(self):
        seq = FeatureSequence(modality="rgb", features=[[1, 2], [3, 4]])
        assert seq.features.dtype == np.float64

    def test_rank_must_be_two(self):
        with pytest.raises(DataError):
            FeatureSequence(modality="rgb", features=np.ones(3))

    def test_by_modality_keeps_order_and_arrays(self):
        s = sample(rgb=np.ones((2, 3)), flow=np.zeros((2, 2)))
        assert list(s.by_modality()) == ["rgb", "flow"]

    def test_repeated_modality_rejected_when_the_sample_is_built(self):
        """A video holding one modality twice would be scored on the last one alone."""
        seqs = [FeatureSequence("rgb", np.ones((2, 2))), FeatureSequence("flow", np.ones((2, 2))),
                FeatureSequence("rgb", np.zeros((2, 2)))]
        with pytest.raises(DataError, match=r"'v1' repeats a modality in \['rgb', 'flow', 'rgb'\]"):
            VideoSample("v1", 0, seqs)

    def test_modality_dims_detects_conflicts(self):
        a = sample("a", rgb=np.ones((2, 3)))
        b = sample("b", rgb=np.ones((4, 5)))
        with pytest.raises(DataError):
            modality_dims([a, b])
        assert modality_dims([a]) == {"rgb": 3}
        with pytest.raises(DataError, match="no modalities present"):
            modality_dims([VideoSample("e", 0, [])])


class TestMmfRoundTrip:
    def test_values_survive_as_float32(self, tmp_path):
        """Features come back exactly as their float32 casts."""
        gen = np.random.default_rng(42)
        samples = [sample(f"vid{i}", i % 3,
                          rgb=gen.normal(size=(4, 3)), flow=gen.normal(size=(6, 2)))
                   for i in range(5)]
        path = tmp_path / "data.mmf"
        write_mmf(path, samples)
        back = read_mmf(path)
        assert [s.video_id for s in back] == [s.video_id for s in samples]
        assert [s.label for s in back] == [s.label for s in samples]
        for orig, got in zip(samples, back):
            for so, sg in zip(orig.sequences, got.sequences):
                assert sg.modality == so.modality
                assert_array_equal(sg.features,
                                   so.features.astype(np.float32).astype(np.float64))

    def test_empty_dataset_round_trips(self, tmp_path):
        path = tmp_path / "empty.mmf"
        write_mmf(path, [])
        assert path.stat().st_size == 12  # magic + version + zero count
        assert read_mmf(path) == []

    def test_unicode_ids_and_names(self, tmp_path):
        s = sample("vidéo-1", 2, **{"flüx": np.ones((2, 2))})
        path = tmp_path / "u.mmf"
        write_mmf(path, [s])
        back = read_mmf(path)
        assert back[0].video_id == "vidéo-1"
        assert back[0].sequences[0].modality == "flüx"

    def test_second_write_is_byte_identical(self, tmp_path):
        gen = np.random.default_rng(42)
        samples = [sample("a", 1, rgb=gen.normal(size=(3, 2)))]
        p1, p2 = tmp_path / "one.mmf", tmp_path / "two.mmf"
        write_mmf(p1, samples)
        write_mmf(p2, samples)
        assert p1.read_bytes() == p2.read_bytes()

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_datasets_round_trip(self, seed, tmp_path_factory):
        """Any well-formed dataset survives write + read unchanged."""
        gen = np.random.default_rng(seed)
        samples = []
        for i in range(int(gen.integers(0, 5))):
            mods = {f"m{j}": gen.normal(scale=10.0,
                                        size=(int(gen.integers(1, 6)), int(gen.integers(1, 5))))
                    for j in range(int(gen.integers(1, 4)))}
            samples.append(sample(f"v{i}", int(gen.integers(0, 9)), **mods))
        path = tmp_path_factory.mktemp("mmf") / "roundtrip.mmf"
        write_mmf(path, samples)
        back = read_mmf(path)
        assert len(back) == len(samples)
        for orig, got in zip(samples, back):
            for so, sg in zip(orig.sequences, got.sequences):
                assert_array_equal(sg.features,
                                   so.features.astype(np.float32).astype(np.float64))


class TestMmfErrors:
    def good_bytes(self, tmp_path):
        path = tmp_path / "good.mmf"
        write_mmf(path, [sample("v0", 1, rgb=np.ones((2, 2)))])
        return path, path.read_bytes()

    def test_bad_magic_reports_offset_zero(self, tmp_path):
        path = tmp_path / "bad.mmf"
        path.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(FormatError) as exc:
            read_mmf(path)
        assert exc.value.offset == 0

    def test_unsupported_version_reports_offset_four(self, tmp_path):
        path = tmp_path / "bad.mmf"
        path.write_bytes(b"MMF1" + struct.pack("<II", 9, 0))
        with pytest.raises(FormatError) as exc:
            read_mmf(path)
        assert exc.value.offset == 4

    def test_truncation_reports_failing_offset(self, tmp_path):
        path, blob = self.good_bytes(tmp_path)
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError) as exc:
            read_mmf(path)
        assert 0 < exc.value.offset <= len(blob)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, blob = self.good_bytes(tmp_path)
        path.write_bytes(blob + b"junk")
        with pytest.raises(FormatError) as exc:
            read_mmf(path)
        assert exc.value.offset == len(blob)

    def test_zero_extent_rejected(self, tmp_path):
        path = tmp_path / "bad.mmf"
        body = (struct.pack("<I", 1) + b"v" + struct.pack("<II", 0, 1)
                + struct.pack("<I", 1) + b"m" + struct.pack("<II", 0, 2))
        path.write_bytes(b"MMF1" + struct.pack("<II", 1, 1) + body)
        with pytest.raises(FormatError, match="extent"):
            read_mmf(path)

    def test_non_finite_feature_rejected(self, tmp_path):
        path = tmp_path / "bad.mmf"
        feats = np.ones((2, 2))
        feats[1, 1] = np.inf
        write_mmf(path, [sample("v0", 0, rgb=feats)])
        with pytest.raises(FormatError, match="non-finite"):
            read_mmf(path)

    def test_negative_label_rejected_on_write(self, tmp_path):
        with pytest.raises(DataError):
            write_mmf(tmp_path / "bad.mmf", [sample("v0", -1, rgb=np.ones((2, 2)))])

    def test_rejected_write_leaves_no_file_and_keeps_an_old_one(self, tmp_path):
        """Labels are checked before the file is opened, whichever video holds the bad one."""
        samples = [sample("v0", 0, rgb=np.ones((2, 2))), sample("v1", -1, rgb=np.ones((2, 2)))]
        with pytest.raises(DataError):
            write_mmf(tmp_path / "new.mmf", samples)
        assert not (tmp_path / "new.mmf").exists()
        old = tmp_path / "old.mmf"
        write_mmf(old, samples[:1])
        before = old.read_bytes()
        with pytest.raises(DataError):
            write_mmf(old, samples)
        assert old.read_bytes() == before

    def test_labels_are_checked_before_anything_is_opened(self, tmp_path, monkeypatch):
        def no_write(*args, **kwargs):
            raise AssertionError("write_mmf opened a file before checking labels")

        monkeypatch.setattr(data, "atomic_write", no_write)
        with pytest.raises(DataError, match="negative label"):
            write_mmf(tmp_path / "bad.mmf", [sample("v0", 0, rgb=np.ones((2, 2))),
                                             sample("v1", -2, rgb=np.ones((2, 2)))])

    def test_modality_repeated_after_the_sample_is_built_is_refused_before_writing(self, tmp_path):
        """The writer asks the sample's name check again, so the reader never refuses its file."""
        s = sample("v1", 0, rgb=np.ones((2, 2)))
        s.sequences.append(FeatureSequence("rgb", np.zeros((2, 2))))
        with pytest.raises(DataError, match=r"'v1' repeats a modality in \['rgb', 'rgb'\]"):
            write_mmf(tmp_path / "twice.mmf", [s])
        assert list(tmp_path.iterdir()) == []

    def test_repeated_modality_read_fails_at_the_repeated_name(self, tmp_path):
        """Each video may name a modality once; errors still come in file order."""
        def seq(name: bytes, value: float) -> bytes:
            return (struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 1)
                    + struct.pack("<f", value))

        def video(vid: bytes, *seqs: bytes) -> bytes:
            return (struct.pack("<I", len(vid)) + vid + struct.pack("<II", 0, len(seqs))
                    + b"".join(seqs))

        # v0's rgb does not count against v1's
        head = b"MMF1" + struct.pack("<II", 1, 2) + video(b"v0", seq(b"rgb", 1.0))
        v1 = video(b"v1", seq(b"rgb", 1.0), seq(b"flow", 2.0), seq(b"rgb", 3.0))
        path = tmp_path / "twice.mmf"
        path.write_bytes(head + v1)
        with pytest.raises(FormatError, match="video 'v1' repeats modality 'rgb'") as exc:
            read_mmf(path)
        assert exc.value.offset == len(head) + len(v1) - len(seq(b"rgb", 3.0)) + 4
        # a non-finite feature before the repeated name is reported first
        path.write_bytes(head + video(b"v1", seq(b"rgb", 1.0), seq(b"flow", np.nan),
                                      seq(b"rgb", 3.0)))
        with pytest.raises(FormatError, match="non-finite feature in modality 'flow'"):
            read_mmf(path)


def _rank3_second_sequence() -> list[VideoSample]:
    broken = sample("v1", 1, rgb=np.ones((2, 2)))
    broken.sequences[0].features = np.ones((2, 2, 2))  # fails after v0 is written
    return [sample("v0", 0, rgb=np.ones((2, 2))), broken]


# each writer with an input it fails on inside its atomic_write block; an id
# with a lone surrogate passes every id check but cannot be encoded as utf-8
_FAILING_WRITES = {
    "write_mmf": lambda path: write_mmf(path, _rank3_second_sequence()),
    "write_checkpoint": lambda path: write_checkpoint(
        path, {"ok": np.ones(3), "rank4": np.ones((1, 1, 1, 1))}, {"model": "x"}),
    "write_labels": lambda path: write_labels(path, [sample("a", 0), sample("b\udc80", 1)]),
    "write_scores": lambda path: write_scores(
        path, ScoreTable(2, ["a", "b\udc80"], [[0.5, 0.5], [0.5, 0.5]])),
}


@pytest.fixture
def atomic_blocks(monkeypatch) -> list:
    """The paths whose atomic_write block the writers entered, in order."""
    entered = []
    real = data.atomic_write

    @contextlib.contextmanager
    def spy(path, mode="w"):
        with real(path, mode) as fh:
            entered.append(path)
            yield fh

    for module in (data, fusion):
        monkeypatch.setattr(module, "atomic_write", spy)
    return entered


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", sorted(_FAILING_WRITES))
    def test_failed_write_keeps_the_old_file_and_leaves_no_temp(self, tmp_path, writer,
                                                                 atomic_blocks):
        target = tmp_path / "artifact"
        target.write_bytes(b"old bytes\n")
        with pytest.raises(Exception):
            _FAILING_WRITES[writer](target)
        assert atomic_blocks == [target]
        assert target.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]

    @pytest.mark.parametrize("writer", sorted(_FAILING_WRITES))
    def test_failed_first_write_leaves_nothing(self, tmp_path, writer, atomic_blocks):
        with pytest.raises(Exception):
            _FAILING_WRITES[writer](tmp_path / "artifact")
        assert atomic_blocks == [tmp_path / "artifact"]
        assert list(tmp_path.iterdir()) == []

    def test_success_replaces_the_target_with_plain_open_permissions(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with atomic_write(target) as fh:
            fh.write("new ünïcode\n")
            assert target.read_text() == "old"  # nothing visible before the block ends
        assert target.read_bytes() == "new ünïcode\n".encode("utf-8")
        plain = tmp_path / "plain.txt"
        with open(plain, "w"):
            pass
        assert target.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "plain.txt"]

    def test_binary_mode(self, tmp_path):
        with atomic_write(tmp_path / "blob", "wb") as fh:
            fh.write(b"\x00\x01")
        assert (tmp_path / "blob").read_bytes() == b"\x00\x01"

    def test_directory_target_fails_like_open_and_leaves_no_temp(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(IsADirectoryError):
            with atomic_write(tmp_path / "d") as fh:
                fh.write("x")
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert list((tmp_path / "d").iterdir()) == []

    def test_pipe_is_written_in_place(self, tmp_path):
        """A target that is no regular file cannot be replaced; it is written through."""
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with atomic_write(pipe) as fh:
                fh.write("through the pipe\n")
            assert os.read(reader, 64) == b"through the pipe\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_missing_directory_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with atomic_write(tmp_path / "no" / "such.txt") as fh:
                fh.write("x")


class TestLabels:
    def test_round_trip(self, tmp_path):
        samples = [sample("a", 0, rgb=np.ones((1, 1))), sample("b", 7, rgb=np.ones((1, 1)))]
        path = tmp_path / "labels.csv"
        write_labels(path, samples)
        assert read_labels(path) == {"a": 0, "b": 7}

    def test_video_id_may_contain_commas(self, tmp_path):
        """Only the last comma separates the label."""
        path = tmp_path / "labels.csv"
        path.write_text("clip,part2,5\n")
        assert read_labels(path) == {"clip,part2": 5}

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("a,1\n\nb,2\n")
        assert read_labels(path) == {"a": 1, "b": 2}

    def test_bytes_that_are_not_utf8_raise_format_error_at_their_offset(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"a,1\nb\xff,2\n")
        with pytest.raises(FormatError, match="not valid utf-8") as exc:
            read_labels(path)
        assert exc.value.offset == 5

    def test_cr_and_crlf_end_lines(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"a,1\rb,2\r\nc,3")
        assert read_labels(path) == {"a": 1, "b": 2, "c": 3}

    @pytest.mark.parametrize("line", ["a,notanum", "a,-3", "nolabel", ",5"])
    def test_malformed_lines_rejected(self, tmp_path, line):
        path = tmp_path / "labels.csv"
        path.write_text(line + "\n")
        with pytest.raises(FormatError):
            read_labels(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("a,1\na,2\n")
        with pytest.raises(FormatError):
            read_labels(path)

    @pytest.mark.parametrize("vid", [" x", "a\nb"])
    def test_ids_that_would_not_read_back_are_refused_before_the_file_is_opened(
            self, tmp_path, monkeypatch, vid):
        """As in a score table: " x" would read back as "x", a line break splits the line."""
        def no_write(*args, **kwargs):
            raise AssertionError("write_labels opened a file before checking the ids")

        monkeypatch.setattr(data, "atomic_write", no_write)
        samples = [sample("a", 0, rgb=np.ones((1, 1))), sample(vid, 1, rgb=np.ones((1, 1)))]
        with pytest.raises(DataError, match="cannot be written to a labels file"):
            write_labels(tmp_path / "labels.csv", samples)


class TestSynthGenerator:
    def test_default_split_sizes(self, default_dataset):
        train, val = default_dataset
        assert len(train) == 800
        assert len(val) == 200

    def test_generation_is_deterministic(self):
        cfg = SynthConfig(num_classes=3, videos_per_class=5, frames=6)
        (t1, v1), (t2, v2) = synth_generate(cfg), synth_generate(cfg)
        for a, b in zip(t1 + v1, t2 + v2):
            assert a.video_id == b.video_id
            for sa, sb in zip(a.sequences, b.sequences):
                assert_array_equal(sa.features, sb.features)

    def test_split_follows_construction_order(self, default_dataset):
        train, val = default_dataset
        assert all(int(s.video_id.split("_")[1]) < 80 for s in train)
        assert all(int(s.video_id.split("_")[1]) >= 80 for s in val)

    def test_labels_match_id_prefix(self, default_dataset):
        train, val = default_dataset
        for s in train + val:
            assert s.label == int(s.video_id[1:4])

    def test_prototypes_are_unit_norm_and_distinct(self, default_prototypes):
        for protos in default_prototypes.values():
            assert_allclose(np.linalg.norm(protos, axis=1), 1.0, rtol=1e-12)
            cos = protos @ protos.T
            assert np.abs(cos[~np.eye(len(cos), dtype=bool)]).max() < 0.9

    def test_signal_frames_shared_across_modalities(self, default_dataset, default_prototypes):
        """Each video plants its class prototype at the same frame slots everywhere."""
        train, _ = default_dataset
        for s in train[:20]:
            position_sets = []
            for seq in s.sequences:
                proto = default_prototypes[seq.modality][s.label]
                dist = np.linalg.norm(seq.features - proto, axis=1)
                # signal frames sit ~0.1*sqrt(D) from the prototype, noise frames ~1.9
                position_sets.append(frozenset(np.flatnonzero(dist < 1.0)))
            assert len(position_sets[0]) == 3
            assert len(set(position_sets)) == 1

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(videos_per_class=4)
        with pytest.raises(ConfigError):
            SynthConfig(num_classes=1)
        with pytest.raises(ConfigError):
            SynthConfig(signal_frames=31)
        with pytest.raises(ConfigError):
            SynthConfig(modalities={"rgb": 1})
        with pytest.raises(ConfigError, match="at least one modality"):
            SynthConfig(modalities={})
        with pytest.raises(ConfigError):
            SynthConfig(noise_std=-0.1)
        # every field has exactly its default's type, checked before any range
        for bad in ({"frames": 4.0}, {"num_classes": 2.0}, {"seed": True}, {"noise_std": 1},
                    {"modalities": [("rgb", 4)]}):
            with pytest.raises(ConfigError, match=f"^{next(iter(bad))} must be of type"):
                SynthConfig(**bad)
        for bad in ({"rgb": 4.0}, {"rgb": True}, {1: 4}):
            with pytest.raises(ConfigError, match="^modalities must map names to int dims"):
                SynthConfig(modalities=bad)

    def test_prototype_helper_matches_planted_signal(self):
        """synth_prototypes reproduces the vectors the generator embeds."""
        cfg = SynthConfig(num_classes=2, videos_per_class=5, frames=4,
                          signal_frames=4, signal_std=0.0, noise_std=1.0)
        train, _ = synth_generate(cfg)
        protos = synth_prototypes(cfg)
        first = train[0]
        for seq in first.sequences:
            # every frame is pure prototype when signal_std=0 and s=T
            assert_allclose(seq.features, np.tile(protos[seq.modality][first.label], (4, 1)),
                            rtol=0, atol=1e-15)


class TestBatchIter:
    def make_samples(self, n):
        return [sample(f"v{i}", 0, rgb=np.ones((1, 1))) for i in range(n)]

    def test_covers_every_sample_once(self):
        samples = self.make_samples(10)
        batches = list(batch_iter(samples, 3, 42))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        seen = [s.video_id for b in batches for s in b]
        assert sorted(seen) == sorted(s.video_id for s in samples)

    def test_same_seed_same_order(self):
        samples = self.make_samples(8)
        order1 = [s.video_id for b in batch_iter(samples, 4, (42, 0)) for s in b]
        order2 = [s.video_id for b in batch_iter(samples, 4, (42, 0)) for s in b]
        assert order1 == order2

    def test_epoch_substream_changes_order(self):
        samples = self.make_samples(32)
        order1 = [s.video_id for b in batch_iter(samples, 8, (42, 0)) for s in b]
        order2 = [s.video_id for b in batch_iter(samples, 8, (42, 1)) for s in b]
        assert order1 != order2

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ConfigError):
            list(batch_iter(self.make_samples(4), 0, 42))


class TestCheckpoint:
    def test_round_trip_arrays_and_meta(self, tmp_path):
        gen = np.random.default_rng(42)
        arrays = {"w": gen.normal(size=(3, 4)), "b": gen.normal(size=4),
                  "scalar": np.asarray(2.5), "cube": gen.normal(size=(2, 2, 2))}
        meta = {"model": "satt", "classes": 10, "nested": {"alpha": 1.0}}
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, arrays, meta)
        back_arrays, back_meta = read_checkpoint(path)
        assert back_meta == meta
        assert set(back_arrays) == set(arrays)
        for name in arrays:
            assert_array_equal(back_arrays[name], arrays[name])

    def test_writes_are_byte_deterministic(self, tmp_path):
        arrays = {"w": np.arange(6.0).reshape(2, 3)}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        write_checkpoint(p1, arrays, {"b": 1, "a": 2})
        write_checkpoint(p2, arrays, {"a": 2, "b": 1})  # key order must not matter
        assert p1.read_bytes() == p2.read_bytes()

    def test_rank_above_three_rejected_on_write(self, tmp_path):
        with pytest.raises(DataError):
            write_checkpoint(tmp_path / "bad.ckpt", {"x": np.zeros((1, 1, 1, 1))}, {})

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(FormatError) as exc:
            read_checkpoint(path)
        assert exc.value.offset == 0

    def test_metadata_that_is_not_json_rejected_at_its_offset(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"CKP1" + struct.pack("<II", 1, 3) + b"{x}" + struct.pack("<I", 0))
        with pytest.raises(FormatError, match="metadata is not valid json") as exc:
            read_checkpoint(path)
        assert exc.value.offset == 12

    def test_truncated_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, {"w": np.ones((2, 2))}, {})
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            read_checkpoint(path)

    def test_duplicate_array_name_rejected_at_its_offset(self, tmp_path):
        """A second array under a taken name is a format error, not a silent overwrite."""
        def array(name: bytes, value: float) -> bytes:
            return (struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 1)
                    + struct.pack("<d", value))

        head = b"CKP1" + struct.pack("<II", 1, 2) + b"{}" + struct.pack("<I", 3)
        first = array(b"w", 1.0) + array(b"b", 2.0)
        path = tmp_path / "dup.ckpt"
        path.write_bytes(head + first + array(b"w", 3.0))
        with pytest.raises(FormatError, match="duplicate array name 'w'") as exc:
            read_checkpoint(path)
        assert exc.value.offset == len(head) + len(first) + 4

    def test_extents_whose_product_overflows_int64_read_as_truncated(self, tmp_path):
        """2^31 * 2^31 * 4 wraps to 0 in int64; the size must not, so the data is missing."""
        head = b"CKP1" + struct.pack("<II", 1, 2) + b"{}" + struct.pack("<I", 1)
        array = struct.pack("<I", 1) + b"w" + struct.pack("<IIII", 3, 2**31, 2**31, 4)
        path = tmp_path / "huge.ckpt"
        path.write_bytes(head + array + struct.pack("<d", 1.0))
        with pytest.raises(FormatError, match="truncated file while reading data of 'w'") as exc:
            read_checkpoint(path)
        assert exc.value.offset == len(head) + len(array)

    def test_zero_extent_array_round_trips(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        write_checkpoint(path, {"e": np.zeros((2, 0)), "w": np.ones(1)}, {})
        arrays, _ = read_checkpoint(path)
        assert arrays["e"].shape == (2, 0) and arrays["w"].tolist() == [1.0]

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, {"w": np.ones(2)}, {})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_checkpoint(path)
