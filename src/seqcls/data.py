"""Feature-sequence datasets: binary container, labels, synthetic generator.

The container is a little-endian binary file holding per-video,
per-modality float32 feature sequences:

    magic "MMF1" | u32 version=1 | u32 num_videos
    per video:    u32 id_len | id (utf-8) | u32 label | u32 num_modalities
    per modality: u32 name_len | name (utf-8) | u32 T | u32 D | T*D float32

Values are row-major with no padding between fields.  Readers raise
``FormatError`` carrying the byte offset of the first offending field.

The synthetic generator plants a class signal in a few frames of
otherwise pure-noise sequences: every (class, modality) pair gets a fixed
unit-norm prototype, and each video copies noisy versions of its class
prototype into a handful of frame slots shared across modalities.  Models
must locate those frames to classify well; averaging over all frames
mostly washes the signal out.

``modality_frames`` is the heads' one input check: it reads a batch's frames
as constants, or raises ``ShapeError`` for an empty batch, a missing
modality or a wrong shape.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Value, rng
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

    def by_modality(self) -> dict[str, np.ndarray]:
        return {s.modality: s.features for s in self.sequences}


def modality_frames(batch: list[dict[str, Value]], name: str, dim: int) -> list[np.ndarray]:
    """Each video's frames [T x dim] of one modality, as constant arrays."""
    if not batch:
        raise ShapeError("a batch needs at least one video")
    frames = []
    for sequences in batch:
        if name not in sequences:
            raise ShapeError(f"missing sequence for modality {name!r}")
        x = sequences[name].data
        if x.ndim != 2 or x.shape[1] != dim:
            raise ShapeError(f"modality {name!r} sequence shape {x.shape}, expected [T x {dim}]")
        frames.append(x)
    return frames


# ---------------------------------------------------------------------------
# binary container
# ---------------------------------------------------------------------------


def write_mmf(path, samples: list[VideoSample]) -> None:
    """Write the container; labels are checked before the file is opened."""
    for s in samples:
        if s.label < 0:
            raise DataError(f"video {s.video_id!r} has negative label {s.label}")
    with open(path, "wb") as fh:
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


class _Cursor:
    """Byte reader that reports the offset of whichever field failed."""

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


def read_mmf(path) -> list[VideoSample]:
    with open(path, "rb") as fh:
        blob = fh.read()
    cur = _Cursor(blob)
    magic = cur.take(4, "magic")
    if magic != MMF_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MMF_MAGIC!r}", offset=0)
    version = cur.u32("version")
    if version != MMF_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    num_videos = cur.u32("video count")

    samples: list[VideoSample] = []
    for _ in range(num_videos):
        vid = cur.text(cur.u32("id length"), "video id")
        label = cur.u32("label")
        num_modalities = cur.u32("modality count")
        seqs: list[FeatureSequence] = []
        for _ in range(num_modalities):
            name = cur.text(cur.u32("name length"), "modality name")
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


def write_labels(path, samples: list[VideoSample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(f"{s.video_id},{s.label}\n")


def read_labels(path) -> dict[str, int]:
    labels: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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


def batch_iter(samples: list[VideoSample], batch_size: int, seed):
    """Yield shuffled batches; the permutation is fixed by the seed.

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
    with open(path, "wb") as fh:
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
    with open(path, "rb") as fh:
        blob = fh.read()
    cur = _Cursor(blob)
    magic = cur.take(4, "magic")
    if magic != CKPT_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}", offset=0)
    version = cur.u32("version")
    if version != CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    meta_len = cur.u32("metadata length")
    meta_off = cur.pos
    try:
        meta = json.loads(cur.text(meta_len, "metadata"))
    except json.JSONDecodeError as exc:
        raise FormatError("metadata is not valid json", offset=meta_off) from exc
    arrays: dict[str, np.ndarray] = {}
    for _ in range(cur.u32("array count")):
        name_len = cur.u32("name length")
        name_off = cur.pos
        name = cur.text(name_len, "array name")
        if name in arrays:
            raise FormatError(f"duplicate array name {name!r}", offset=name_off)
        ndim = cur.u32("rank")
        if ndim > 3:
            raise FormatError(f"array {name!r} rank {ndim} exceeds 3", offset=cur.pos - 4)
        shape = tuple(cur.u32("extent") for _ in range(ndim))
        size = int(np.prod(shape)) if shape else 1
        raw = cur.take(8 * size, f"data of {name!r}")
        arrays[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if cur.pos != len(blob):
        raise FormatError(f"{len(blob) - cur.pos} trailing bytes after last array",
                          offset=cur.pos)
    return arrays, meta
