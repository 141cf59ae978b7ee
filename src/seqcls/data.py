"""Feature-sequence datasets: binary container, labels, synthetic generator.

The container is a little-endian binary file holding per-video,
per-modality float32 feature sequences:

    magic "MMF1" | u32 version=1 | u32 num_videos
    per video:    u32 id_len | id (utf-8) | u32 label | u32 num_modalities
    per modality: u32 name_len | name (utf-8) | u32 T | u32 D | T*D float32

Values are row-major with no padding between fields; a video names each
modality at most once (``VideoSample`` refuses a repeat, and ``write_mmf``
checks again).  Readers raise ``FormatError`` carrying the byte offset of
the first offending field.

The synthetic generator plants a class signal in a few frames of
otherwise pure-noise sequences: every (class, modality) pair gets a fixed
unit-norm prototype, and each video copies noisy versions of its class
prototype into a handful of frame slots shared across modalities.  Models
must locate those frames to classify well; averaging over all frames
mostly washes the signal out.

``modality_frames`` is the heads' one input check: each model's ``prepare``
reads a batch's frames through it as float64 arrays, and it raises
``ShapeError`` for an empty batch, a missing modality or a wrong shape.

Every ``SynthConfig`` field has exactly its default's type (modalities map
str to int), checked by ``check_type``, which ``TrainConfig`` shares.

Every artifact writer goes through ``atomic_write``, so a failed write
leaves an existing file as it was and no half-written file behind.  The
labels and score-table writers first refuse, in ``check_line_ids``, an id
that would not read back: one with a line break or leading whitespace.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import itertools
import json
import math
import os
import struct
import uuid
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .autodiff import rng
from .errors import ConfigError, DataError, FormatError, ShapeError

MMF_MAGIC = b"MMF1"
MMF_VERSION = 1
CKPT_MAGIC = b"CKP1"
CKPT_VERSION = 1


@dataclass
class FeatureSequence:
    """Frames of one modality for one video: float array [T x D]."""

    modality: str
    features: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DataError(f"modality {self.modality!r} features must be rank 2")


@dataclass
class VideoSample:
    video_id: str
    label: int
    sequences: list[FeatureSequence] = field(default_factory=list)

    def __post_init__(self):
        self.check_modalities()

    def check_modalities(self) -> None:
        """Raise DataError when a modality is named twice; ``write_mmf`` asks again,
        since ``sequences`` can change after the sample is built."""
        names = [s.modality for s in self.sequences]
        if len(set(names)) < len(names):
            raise DataError(f"video {self.video_id!r} repeats a modality in {names}")

    def by_modality(self) -> dict[str, np.ndarray]:
        return {s.modality: s.features for s in self.sequences}


def modality_frames(batch: list[dict[str, np.ndarray]], name: str, dim: int) -> list[np.ndarray]:
    """Each video's frames [T x dim] of one modality, checked, as float64 arrays."""
    if not batch:
        raise ShapeError("a batch needs at least one video")
    frames = []
    for sequences in batch:
        if name not in sequences:
            raise ShapeError(f"missing sequence for modality {name!r}")
        x = np.asarray(sequences[name], dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != dim:
            raise ShapeError(f"modality {name!r} sequence shape {x.shape}, expected [T x {dim}]")
        frames.append(x)
    return frames


# ---------------------------------------------------------------------------
# atomic artifact writes
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temp file in path's directory; on success it replaces path.

    The temp file is flushed and moved onto path with ``os.replace`` only
    when the block ends cleanly; on any exception it is removed and path
    keeps its old bytes.  A path that exists but is no regular file (a
    device or a pipe) cannot be replaced and is written in place.
    """
    encoding = None if "b" in mode else "utf-8"
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        # exclusive creation under the process umask, like a plain open
        with open(tmp, mode.replace("w", "x"), encoding=encoding) as fh:
            yield fh
            fh.flush()
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# binary container
# ---------------------------------------------------------------------------


def write_mmf(path, samples: list[VideoSample]) -> None:
    """Write the container; labels and modality names are checked before the file is opened."""
    for s in samples:
        s.check_modalities()
        if s.label < 0:
            raise DataError(f"video {s.video_id!r} has negative label {s.label}")
    with atomic_write(path, "wb") as fh:
        fh.write(MMF_MAGIC)
        fh.write(struct.pack("<II", MMF_VERSION, len(samples)))
        for s in samples:
            vid = s.video_id.encode("utf-8")
            fh.write(struct.pack("<I", len(vid)))
            fh.write(vid)
            fh.write(struct.pack("<II", s.label, len(s.sequences)))
            for seq in s.sequences:
                name = seq.modality.encode("utf-8")
                t, d = seq.features.shape
                fh.write(struct.pack("<I", len(name)))
                fh.write(name)
                fh.write(struct.pack("<II", t, d))
                fh.write(np.ascontiguousarray(seq.features, dtype="<f4").tobytes())


# runs of 0 to 3 little-endian u32 fields; the longest is a rank-3 array's extents
_U32S = [struct.Struct("<" + "I" * n) for n in range(4)]


def _span(blob: bytes, pos: int, n: int, what: str) -> int:
    """End of the n bytes at pos, or FormatError at pos if the blob is shorter."""
    if pos + n > len(blob):
        raise FormatError(f"truncated file while reading {what}", offset=pos)
    return pos + n


def _u32s(blob: bytes, pos: int, *whats: str) -> tuple[tuple[int, ...], int]:
    """One u32 per name in whats at pos, and the end offset.

    A short blob raises at the offset of the first field it cuts, named.
    """
    fmt = _U32S[len(whats)]
    if pos + fmt.size > len(blob):
        cut = (len(blob) - pos) // 4
        raise FormatError(f"truncated file while reading {whats[cut]}", offset=pos + 4 * cut)
    return fmt.unpack_from(blob, pos), pos + fmt.size


def _text(blob: bytes, pos: int, n: int, what: str) -> tuple[str, int]:
    """The n bytes at pos decoded as utf-8, and the end offset."""
    end = _span(blob, pos, n, what)
    try:
        return blob[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not valid utf-8", offset=pos) from exc


def _features(blob: bytes,
              layout: list[tuple[str, int, int, int]]) -> tuple[np.ndarray, list[int]]:
    """All sequences' float32 values as one float64 array, and each one's start in it.

    layout lists (name, T, D, byte offset) per sequence in file order; the
    first non-finite value, in that order, raises at its byte offset.
    """
    starts = list(itertools.accumulate((t * d for _, t, d, _ in layout), initial=0))
    flat = np.empty(starts[-1])
    for (_, _, _, offset), a, b in zip(layout, starts, starts[1:]):
        flat[a:b] = np.frombuffer(blob, "<f4", b - a, offset)
    finite = np.isfinite(flat)
    if not finite.all():
        bad = int(np.argmin(finite))
        j = bisect.bisect_right(starts, bad) - 1
        raise FormatError(f"non-finite feature in modality {layout[j][0]!r}",
                          offset=layout[j][3] + 4 * (bad - starts[j]))
    return flat, starts


def read_mmf(path) -> list[VideoSample]:
    """Read the container; every sequence's features are a view of one array.

    Errors come in file order.  The header walk stops at the first bad or
    truncated field (or at trailing bytes), but a non-finite feature in a
    sequence before that field is reported first.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    _span(blob, 0, 4, "magic")
    if blob[:4] != MMF_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {MMF_MAGIC!r}", offset=0)
    (version,), pos = _u32s(blob, 4, "version")
    if version != MMF_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    (num_videos,), pos = _u32s(blob, pos, "video count")

    videos: list[tuple[str, int, int]] = []  # (id, label, modality count)
    layout: list[tuple[str, int, int, int]] = []  # (name, T, D, data offset)
    try:
        for _ in range(num_videos):
            (n,), pos = _u32s(blob, pos, "id length")
            vid, pos = _text(blob, pos, n, "video id")
            (label, num_modalities), pos = _u32s(blob, pos, "label", "modality count")
            first = len(layout)
            for _ in range(num_modalities):
                (n,), name_off = _u32s(blob, pos, "name length")
                name, pos = _text(blob, name_off, n, "modality name")
                if any(entry[0] == name for entry in layout[first:]):
                    raise FormatError(f"video {vid!r} repeats modality {name!r}", offset=name_off)
                (t, d), pos = _u32s(blob, pos, "frame count", "feature dim")
                if t < 1 or d < 1:
                    raise FormatError(f"modality {name!r} has empty extent {t}x{d}",
                                      offset=pos - 8)
                end = _span(blob, pos, 4 * t * d, f"features of {name!r}")
                layout.append((name, t, d, pos))
                pos = end
            videos.append((vid, label, num_modalities))
        if pos != len(blob):
            raise FormatError(f"{len(blob) - pos} trailing bytes after last video", offset=pos)
    except FormatError:
        _features(blob, layout)  # a non-finite feature before the fault is reported first
        raise
    flat, starts = _features(blob, layout)

    seqs = iter([FeatureSequence(modality=name, features=flat[a:a + t * d].reshape(t, d))
                 for (name, t, d, _), a in zip(layout, starts)])
    return [VideoSample(video_id=vid, label=label, sequences=list(itertools.islice(seqs, n)))
            for vid, label, n in videos]


def modality_dims(samples: list[VideoSample]) -> dict[str, int]:
    """Modality name -> feature dim, insertion-ordered; dims must agree."""
    dims: dict[str, int] = {}
    for s in samples:
        for seq in s.sequences:
            d = seq.features.shape[1]
            if dims.setdefault(seq.modality, d) != d:
                raise DataError(
                    f"modality {seq.modality!r} dim {d} in video {s.video_id!r} "
                    f"conflicts with {dims[seq.modality]}")
    if not dims:
        raise DataError("no modalities present in dataset")
    return dims


# ---------------------------------------------------------------------------
# synthetic planted-signal dataset
# ---------------------------------------------------------------------------


def check_type(name: str, value, default) -> None:
    """Raise ConfigError unless value has exactly default's type (a bool is no int)."""
    if type(value) is not type(default):
        raise ConfigError(f"{name} must be of type {type(default).__name__}, got {value!r}")


@dataclass
class SynthConfig:
    # noise_std 0.4 keeps the planted frames recoverable by trainable frame
    # scoring while leaving mean pooling far behind; see the reference
    # fixtures for the measured gap
    num_classes: int = 10
    videos_per_class: int = 100
    modalities: dict[str, int] = field(default_factory=lambda: {"rgb": 16, "flow": 16})
    frames: int = 30
    signal_frames: int = 3
    signal_std: float = 0.1
    noise_std: float = 0.4
    seed: int = 42

    def __post_init__(self):
        for f in fields(self):
            default = f.default_factory() if f.default is MISSING else f.default
            check_type(f.name, getattr(self, f.name), default)
        if not all(type(m) is str and type(d) is int for m, d in self.modalities.items()):
            raise ConfigError(f"modalities must map names to int dims, got {self.modalities!r}")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.videos_per_class < 5:
            raise ConfigError("videos_per_class must be >= 5 for an 80/20 split")
        if not self.modalities:
            raise ConfigError("at least one modality is required")
        if any(d < 2 for d in self.modalities.values()):
            raise ConfigError("modality feature dims must be >= 2")
        if not 1 <= self.signal_frames <= self.frames:
            raise ConfigError("signal_frames must lie in [1, frames]")
        if self.signal_std < 0.0 or self.noise_std < 0.0:
            raise ConfigError("noise levels must be non-negative")


def _draw_prototypes(config: SynthConfig, gen) -> dict[str, np.ndarray]:
    prototypes = {}
    for name, dim in config.modalities.items():
        protos = gen.normal(size=(config.num_classes, dim))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        prototypes[name] = protos
    return prototypes


def synth_prototypes(config: SynthConfig) -> dict[str, np.ndarray]:
    """Unit-norm class prototypes, byte-identical to what synth_generate plants."""
    return _draw_prototypes(config, rng(config.seed))


def synth_generate(config: SynthConfig) -> tuple[list[VideoSample], list[VideoSample]]:
    """Deterministic (train, val) split of planted-signal videos.

    The first 80% of each class's videos go to train, the rest to val.
    Signal frames sit at the same positions in every modality of a video,
    mirroring how an event spans all streams of a real clip.
    """
    gen = rng(config.seed)
    prototypes = _draw_prototypes(config, gen)

    train: list[VideoSample] = []
    val: list[VideoSample] = []
    cut = int(0.8 * config.videos_per_class)
    for cls in range(config.num_classes):
        for i in range(config.videos_per_class):
            positions = np.sort(gen.choice(config.frames, size=config.signal_frames,
                                           replace=False))
            seqs = []
            for name, dim in config.modalities.items():
                frames = gen.normal(scale=config.noise_std, size=(config.frames, dim))
                signal = prototypes[name][cls] + gen.normal(scale=config.signal_std,
                                                            size=(config.signal_frames, dim))
                frames[positions] = signal
                seqs.append(FeatureSequence(modality=name, features=frames))
            sample = VideoSample(video_id=f"v{cls:03d}_{i:04d}", label=cls, sequences=seqs)
            (train if i < cut else val).append(sample)
    return train, val


# ---------------------------------------------------------------------------
# label lists
# ---------------------------------------------------------------------------


def check_line_ids(ids, what: str) -> None:
    """Raise DataError for an id that holds a line break or starts with whitespace."""
    for vid in ids:
        if "\n" in vid or "\r" in vid or vid[:1].isspace():
            raise DataError(f"video id {vid!r} cannot be written to a {what}")


def write_labels(path, samples: list[VideoSample]) -> None:
    check_line_ids((s.video_id for s in samples), "labels file")
    with atomic_write(path) as fh:
        for s in samples:
            fh.write(f"{s.video_id},{s.label}\n")


def read_text_lines(path, what: str) -> io.StringIO:
    """A text file's lines, ended by LF, CR LF or CR.

    Raises ``FormatError`` naming `what` at the offset of the first byte
    that is not utf-8.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return io.StringIO(raw.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not valid utf-8", offset=exc.start) from exc


def read_labels(path) -> dict[str, int]:
    labels: dict[str, int] = {}
    for lineno, line in enumerate(read_text_lines(path, "labels file"), start=1):
        line = line.strip()
        if not line:
            continue
        vid, sep, raw = line.rpartition(",")
        if not sep or not vid:
            raise FormatError(f"line {lineno}: expected 'video_id,label'")
        try:
            label = int(raw)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: label {raw!r} is not an integer") from exc
        if label < 0:
            raise FormatError(f"line {lineno}: label must be non-negative")
        if vid in labels:
            raise FormatError(f"line {lineno}: duplicate video id {vid!r}")
        labels[vid] = label
    return labels


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def batch_iter(samples: Sequence, batch_size: int, seed):
    """Yield shuffled batches of the samples (or of any sequence's items); the
    permutation is fixed by the seed.

    `seed` is an int or a tuple of ints (e.g. (run_seed, epoch)).
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    seeds = seed if isinstance(seed, (tuple, list)) else (seed,)
    order = rng(*seeds).permutation(len(samples))
    for start in range(0, len(samples), batch_size):
        yield [samples[i] for i in order[start:start + batch_size]]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def write_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Binary checkpoint: JSON metadata plus named float64 arrays."""
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(meta_blob)))
        fh.write(meta_blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=np.float64)
            if arr.ndim > 3:
                raise DataError(f"array {name!r} rank {arr.ndim} exceeds 3")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<I", extent))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Arrays and metadata of a checkpoint; errors come in file order.

    An array's size is the product of its extents in Python integers, so
    extents whose product overflows 64 bits read as a truncated file.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    _span(blob, 0, 4, "magic")
    if blob[:4] != CKPT_MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:4]!r}", offset=0)
    (version,), pos = _u32s(blob, 4, "version")
    if version != CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    (meta_len,), meta_off = _u32s(blob, pos, "metadata length")
    text, pos = _text(blob, meta_off, meta_len, "metadata")
    try:
        meta = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("metadata is not valid json", offset=meta_off) from exc
    arrays: dict[str, np.ndarray] = {}
    (count,), pos = _u32s(blob, pos, "array count")
    for _ in range(count):
        (name_len,), name_off = _u32s(blob, pos, "name length")
        name, pos = _text(blob, name_off, name_len, "array name")
        if name in arrays:
            raise FormatError(f"duplicate array name {name!r}", offset=name_off)
        (ndim,), pos = _u32s(blob, pos, "rank")
        if ndim > 3:
            raise FormatError(f"array {name!r} rank {ndim} exceeds 3", offset=pos - 4)
        shape, start = _u32s(blob, pos, *["extent"] * ndim)
        size = math.prod(shape)
        pos = _span(blob, start, 8 * size, f"data of {name!r}")
        arrays[name] = np.frombuffer(blob, "<f8", size, start).astype(np.float64).reshape(shape)
    if pos != len(blob):
        raise FormatError(f"{len(blob) - pos} trailing bytes after last array", offset=pos)
    return arrays, meta


def array_extent(arrays: dict[str, np.ndarray], name: str, axis: int, ndim: int) -> int | None:
    """The extent along axis of a checkpoint array of rank ndim; None if it is not one."""
    arr = arrays.get(name)
    return arr.shape[axis] if arr is not None and arr.ndim == ndim else None
