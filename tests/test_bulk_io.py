"""The bulk readers and writers against the per-field code they replaced.

``ref_read_mmf``, ``ref_write_scores``, ``ref_read_scores`` and
``ref_late_fuse`` are the earlier implementations, kept as oracles: one
cursor call and one ``struct.unpack`` per header field, one conversion and
one finiteness check per sequence, one ``format`` per score and one
``score_oracle.add_row`` per row.  On valid input the current code must give
the same bytes; on corrupt input the same exception class, message and
offset.
"""

from __future__ import annotations

import re
import struct

import numpy as np
import pytest

from score_oracle import RefTable, add_row, per_row_table
from seqcls.data import FeatureSequence, VideoSample, read_mmf, write_mmf
from seqcls.errors import ConfigError, DataError, FormatError
from seqcls.fusion import ScoreTable, late_fuse, read_scores, write_scores

MMF_MAGIC = b"MMF1"


class _RefCursor:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(f"truncated file while reading {what}", offset=self.pos)
        piece = self.blob[self.pos:self.pos + n]
        self.pos += n
        return piece

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def text(self, n: int, what: str) -> str:
        start = self.pos
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} is not valid utf-8", offset=start) from exc


def ref_read_mmf(path) -> list[VideoSample]:
    with open(path, "rb") as fh:
        blob = fh.read()
    cur = _RefCursor(blob)
    magic = cur.take(4, "magic")
    if magic != MMF_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MMF_MAGIC!r}", offset=0)
    version = cur.u32("version")
    if version != 1:
        raise FormatError(f"unsupported version {version}", offset=4)
    num_videos = cur.u32("video count")
    samples = []
    for _ in range(num_videos):
        vid = cur.text(cur.u32("id length"), "video id")
        label = cur.u32("label")
        num_modalities = cur.u32("modality count")
        seqs = []
        for _ in range(num_modalities):
            n = cur.u32("name length")
            name_off = cur.pos
            name = cur.text(n, "modality name")
            if name in [q.modality for q in seqs]:
                raise FormatError(f"video {vid!r} repeats modality {name!r}", offset=name_off)
            t = cur.u32("frame count")
            d = cur.u32("feature dim")
            if t < 1 or d < 1:
                raise FormatError(f"modality {name!r} has empty extent {t}x{d}",
                                  offset=cur.pos - 8)
            data_off = cur.pos
            raw = cur.take(4 * t * d, f"features of {name!r}")
            feats = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(t, d)
            if not np.all(np.isfinite(feats)):
                bad = int(np.flatnonzero(~np.isfinite(feats.reshape(-1)))[0])
                raise FormatError(f"non-finite feature in modality {name!r}",
                                  offset=data_off + 4 * bad)
            seqs.append(FeatureSequence(modality=name, features=feats))
        samples.append(VideoSample(video_id=vid, label=label, sequences=seqs))
    if cur.pos != len(blob):
        raise FormatError(f"{len(blob) - cur.pos} trailing bytes after last video",
                          offset=cur.pos)
    return samples


def ref_write_scores(path, table: ScoreTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#classes={table.num_classes}\n")
        for vid, probs in table.rows.items():
            fh.write(vid + "," + ",".join(format(p, ".9g") for p in probs) + "\n")


def ref_read_scores(path) -> RefTable:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#classes="):
            raise FormatError(f"expected '#classes=K' header, got {header!r}")
        try:
            k = int(header.removeprefix("#classes="))
        except ValueError as exc:
            raise FormatError(f"bad class count in header {header!r}") from exc
        if k < 2:
            raise FormatError(f"class count must be >= 2, got {k}")
        table = RefTable(k, {})
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != k + 1:
                raise FormatError(f"line {lineno}: expected {k + 1} fields, got {len(parts)}")
            try:
                probs = [float(p) for p in parts[1:]]
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-numeric score") from exc
            try:
                add_row(table, parts[0], probs)
            except DataError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
    return table


def ref_late_fuse(tables: list[ScoreTable], weights: list[float]) -> RefTable:
    if not tables:
        raise ConfigError("late_fuse requires at least one table")
    if len(weights) != len(tables):
        raise ConfigError(f"{len(tables)} tables but {len(weights)} weights")
    if any(w < 0.0 for w in weights):
        raise ConfigError(f"weights must be non-negative, got {weights}")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ConfigError(f"weights sum to {sum(weights)!r}, expected 1")
    first = tables[0]
    ids = set(first.rows)
    for t in tables[1:]:
        if t.num_classes != first.num_classes:
            raise DataError(f"class counts disagree: {first.num_classes} vs {t.num_classes}")
        if set(t.rows) != ids:
            missing = ids.symmetric_difference(t.rows)
            raise DataError(f"video ids disagree across tables, e.g. {sorted(missing)[:3]}")
    fused = []
    for vid in first.rows:
        p = first.rows[vid].copy()
        for t, w in zip(tables[1:], weights[1:]):
            p += w * (t.rows[vid] - first.rows[vid])
        fused.append(np.clip(p, 0.0, 1.0))
    return per_row_table(first.num_classes, list(first.rows), fused)


def outcome(reader, path):
    """('ok', result) or (exception class, message, offset) of one read."""
    try:
        return "ok", reader(path)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def assert_same_samples(got: list[VideoSample], want: list[VideoSample]) -> None:
    assert [(s.video_id, s.label) for s in got] == [(s.video_id, s.label) for s in want]
    for g, w in zip(got, want):
        assert [q.modality for q in g.sequences] == [q.modality for q in w.sequences]
        for gq, wq in zip(g.sequences, w.sequences):
            assert gq.features.dtype == wq.features.dtype == np.float64
            assert gq.features.shape == wq.features.shape
            assert gq.features.tobytes() == wq.features.tobytes()


def ragged_samples(seed: int, count: int = 6) -> list[VideoSample]:
    """Two modalities of different widths, T from 1 to 7, ids with commas and non-ascii."""
    gen = np.random.default_rng(seed)
    samples = []
    for i in range(count):
        seqs = [FeatureSequence(name, gen.normal(scale=3.0, size=(int(gen.integers(1, 8)), d)))
                for name, d in (("rgb", 3), ("flöw", 2))]
        samples.append(VideoSample(f"v{i},é", int(gen.integers(0, 5)), seqs))
    return samples


def _feature_spans(blob: bytes) -> list[tuple[int, int]]:
    """(byte offset, value count) of every sequence's features, walking a valid file."""
    spans, pos = [], 12
    for _ in range(struct.unpack_from("<I", blob, 8)[0]):
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
        count = struct.unpack_from("<I", blob, pos + 4)[0]
        pos += 8
        for _ in range(count):
            pos += 4 + struct.unpack_from("<I", blob, pos)[0]
            t, d = struct.unpack_from("<II", blob, pos)
            pos += 8
            spans.append((pos, t * d))
            pos += 4 * t * d
    return spans


def _with_value(blob: bytes, offset: int, value: float) -> bytes:
    return blob[:offset] + struct.pack("<f", value) + blob[offset + 4:]


def corrupt_corpus(blob: bytes, seed: int) -> list[bytes]:
    """Every truncation, seeded bit flips, one or two NaN and inf injections, and truncated ones."""
    gen = np.random.default_rng(seed)
    spans = _feature_spans(blob)
    corpus = [blob[:n] for n in range(len(blob))]
    corpus += [blob + b"\x00", blob + b"junk"]
    for _ in range(300):
        flipped = bytearray(blob)
        for _ in range(int(gen.integers(1, 4))):
            flipped[int(gen.integers(len(blob)))] ^= 1 << int(gen.integers(8))
        corpus.append(bytes(flipped))
    for _ in range(60):
        offset, count = spans[int(gen.integers(len(spans)))]
        bad = _with_value(blob, offset + 4 * int(gen.integers(count)),
                          [np.nan, np.inf, -np.inf][int(gen.integers(3))])
        corpus.append(bad)
        corpus.append(bad[:int(gen.integers(len(blob)))])
        corpus.append(bad + b"\x00")
        offset, count = spans[int(gen.integers(len(spans)))]
        corpus.append(_with_value(bad, offset + 4 * int(gen.integers(count)), np.nan))
    return corpus


class TestReadMmfMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_files_give_equal_bytes_shapes_and_ids(self, seed, tmp_path):
        samples = ragged_samples(seed, count=40)
        samples.append(VideoSample("no modalities", 3, []))
        path = tmp_path / "ok.mmf"
        write_mmf(path, samples)
        got = read_mmf(path)
        assert_same_samples(got, ref_read_mmf(path))
        # every sequence is a [T x D] view of one array
        bases = [q.features.base for s in got for q in s.sequences]
        assert bases[0] is not None and all(b is bases[0] for b in bases)

    def test_empty_container(self, tmp_path):
        path = tmp_path / "empty.mmf"
        write_mmf(path, [])
        assert read_mmf(path) == ref_read_mmf(path) == []

    def test_seeded_corruptions_raise_identical_errors(self, tmp_path):
        path = tmp_path / "ok.mmf"
        write_mmf(path, ragged_samples(7))
        blob = path.read_bytes()
        messages = []
        for i, bad in enumerate(corrupt_corpus(blob, seed=2024)):
            path.write_bytes(bad)
            got, want = outcome(read_mmf, path), outcome(ref_read_mmf, path)
            if want[0] == "ok":
                assert got[0] == "ok", (i, got)
                assert_same_samples(got[1], want[1])
            else:
                assert got == want, i
                messages.append(want[1])
        # the corpus reaches the header, utf-8, extent, data and trailing-byte checks
        for check in ("bad magic", "unsupported version", "truncated file", "not valid utf-8",
                      "empty extent", "non-finite feature", "trailing bytes"):
            assert any(check in m for m in messages), check

    def test_nan_before_a_truncated_header_is_reported_first(self, tmp_path):
        path = tmp_path / "ok.mmf"
        write_mmf(path, ragged_samples(3))
        blob = path.read_bytes()
        spans = _feature_spans(blob)
        bad = _with_value(blob, spans[0][0] + 4, np.nan)
        cut = spans[-1][0] - 6  # inside the last sequence's frame count and dim
        path.write_bytes(bad[:cut])
        with pytest.raises(FormatError, match="non-finite feature in modality 'rgb'") as exc:
            read_mmf(path)
        assert exc.value.offset == spans[0][0] + 4
        assert outcome(read_mmf, path) == outcome(ref_read_mmf, path)
        # without the NaN the same file fails at its header
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError, match="truncated file while reading frame count"):
            read_mmf(path)
        assert outcome(read_mmf, path) == outcome(ref_read_mmf, path)


def score_tables() -> list[ScoreTable]:
    """Rows with ties, both zeros, exact 0 and 1, a subnormal-adjacent 1e-300, and noise."""
    gen = np.random.default_rng(11)
    fixed = np.array([[0.25, 0.25, 0.25, 0.25],
                      [1.0, 0.0, -0.0, 0.0],
                      [-0.0, 1.0, 1e-300, 0.0],
                      [0.5, 0.5, 0.0, 0.0],
                      [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0],
                      [1e-300, 1.0 - 2e-300, 1e-300, 0.0]])
    tables = []
    for n in (0, 7, 50):
        e = gen.exponential(size=(n, 4)) ** 3
        probs = np.concatenate([fixed, e / e.sum(axis=1, keepdims=True)])
        tables.append(ScoreTable(4, [f"s{n}_{i}" for i in range(len(probs))], probs))
    return tables


def assert_same_table(got: ScoreTable, want: RefTable) -> None:
    assert got.num_classes == want.num_classes
    assert list(got.rows) == list(want.rows)
    for vid in want.rows:
        assert got.rows[vid].dtype == want.rows[vid].dtype
        assert got.rows[vid].shape == want.rows[vid].shape
        assert got.rows[vid].tobytes() == want.rows[vid].tobytes()


def mutated_score_texts(text: str, k: int, seed: int) -> list[str]:
    """Truncations, seeded 7-bit flips and field edits that add no comma.

    A line with more than k commas holds an id with a comma, which the current
    reader accepts and the reference rejects; bytes above 0x7f are not utf-8,
    which the reference does not turn into a FormatError.  Both are tested apart.
    """
    gen = np.random.default_rng(seed)
    out = [text[:n] for n in range(0, len(text), 3)]
    lines = text.split("\n")
    for _ in range(300):
        chars = list(text)
        for _ in range(int(gen.integers(1, 3))):
            i = int(gen.integers(len(chars)))
            chars[i] = chr(ord(chars[i]) ^ (1 << int(gen.integers(7))))
        out.append("".join(chars))
    for _ in range(100):
        edited = list(lines)
        i = int(gen.integers(1, len(lines) - 1))
        fields = edited[i].split(",")
        j = int(gen.integers(1, len(fields)))
        fields[j] = ["nan", "inf", "-1e-9", "1.5", "abc", "", "0x1", "1_0"][int(gen.integers(8))]
        edited[i] = ",".join(fields)
        if gen.random() < 0.5:  # a parse error on a later line than the bad row
            later = int(gen.integers(i, len(lines) - 1))
            edited[later] = edited[later].rsplit(",", 1)[0]
        out.append("\n".join(edited))
    return [t for t in out if max(line.count(",") for line in re.split(r"\r\n|\r|\n", t)) <= k]


class TestScoreFilesMatchReference:
    def test_write_gives_equal_bytes(self, tmp_path):
        for table in score_tables():
            write_scores(tmp_path / "new.csv", table)
            ref_write_scores(tmp_path / "ref.csv", table)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_read_gives_equal_tables(self, tmp_path):
        path = tmp_path / "s.csv"
        for table in score_tables():
            ref_write_scores(path, table)
            assert_same_table(read_scores(path), ref_read_scores(path))

    def test_mutated_files_raise_identical_errors(self, tmp_path):
        table = score_tables()[1]
        path = tmp_path / "s.csv"
        ref_write_scores(path, table)
        text = path.read_text()
        texts = mutated_score_texts(text, table.num_classes, seed=5)
        failures = 0
        for i, bad in enumerate(texts):
            path.write_text(bad, encoding="utf-8")
            got, want = outcome(read_scores, path), outcome(ref_read_scores, path)
            if want[0] == "ok":
                assert got[0] == "ok", (i, got)
                assert_same_table(got[1], want[1])
            else:
                failures += 1
                assert got == want, (i, bad)
        assert failures > len(texts) // 2

    def test_bad_row_wins_over_a_later_parse_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("#classes=2\na,0.5,0.5\nb,0.9,0.9\nc,0.5\nd,x,1\n")
        with pytest.raises(FormatError, match=r"^line 3: video 'b': scores sum to 1\.8"):
            read_scores(path)
        assert outcome(read_scores, path) == outcome(ref_read_scores, path)


class TestLateFuseMatchesReference:
    def test_rows_are_bit_identical(self):
        gen = np.random.default_rng(4)
        ids = [f"v{i}" for i in range(60)]
        tables = []
        for _ in range(3):
            e = gen.exponential(size=(60, 5)) ** 4
            e[::7] = 0.2  # ties shared by every table
            tables.append(ScoreTable(5, ids, e / e.sum(axis=1, keepdims=True)))
        shuffled = ScoreTable(5, ids[::-1], tables[2].probs[::-1])
        for group, weights in [(tables[:2], [0.5, 0.5]), (tables, [0.2, 0.3, 0.5]),
                               ([tables[0], shuffled], [0.7, 0.3]), (tables, [0.0, 1.0, 0.0]),
                               ([tables[1]] * 3, [1 / 3] * 3), (tables[:1], [1.0])]:
            assert_same_table(late_fuse(group, weights), ref_late_fuse(group, weights))

    def test_empty_tables_fuse_to_an_empty_table(self):
        a, b = ScoreTable(3, [], np.empty((0, 3))), ScoreTable(3, [], np.empty((0, 3)))
        assert_same_table(late_fuse([a, b], [0.5, 0.5]), ref_late_fuse([a, b], [0.5, 0.5]))
