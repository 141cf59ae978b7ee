"""Training and evaluation harness for the sequence-classification models.

``train`` runs mini-batch gradient descent on one of three models (the
attention head, the temporal-convolution head, or the frame-average
baseline), evaluates on the validation split after every epoch, and keeps
the parameters of the best top-1 epoch (earliest epoch wins ties).  All
randomness flows through explicit integer seeds, so reruns of the same
configuration produce byte-identical metrics, scores, and checkpoints.

Models are reached only through ``MODELS``, a table from model name to
parameter class; a new head is one new entry.  Each class provides
``CONFIG_FIELDS`` (checkpoint ``model_kwargs`` key -> ``TrainConfig``
field), ``from_kwargs``, ``forward_batch`` (sequence dicts [B] -> logits
[B x K], one graph), named ``parameters()`` and ``buffers()`` (only txn has
buffers: its batch-norm statistics), and its ``(modality, dim)`` list.

Wall-clock time is reported on the in-memory result only; it never enters
any serialized artifact.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Value, rng, zero_grads
from .data import (
    VideoSample,
    batch_iter,
    modality_dims,
    read_checkpoint,
    read_mmf,
    write_checkpoint,
)
from .errors import ConfigError, DataError, NumericError
from .fusion import MeanPoolParams, ScoreTable, softmax_scores, top_k_accuracy
from .satt import SattNetParams
from .txn import TxnParams

MODELS = {"satt": SattNetParams, "txn": TxnParams, "meanpool": MeanPoolParams}
OPTIMIZERS = ("sgd", "adam")
# videos per forward graph in evaluate: near the training batch size, which
# amortizes per-op overhead while keeping the chunk's arrays small
EVAL_CHUNK = 16


@dataclass
class TrainConfig:
    # the defaults are the reference configuration for the bundled synthetic
    # dataset: every model trains with adam at lr 0.02 on batches of 16, and
    # the convolution head keeps one pooled segment per frame (30 frames)
    model: str = "satt"
    optimizer: str = "adam"
    lr: float = 0.02
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 16
    epochs: int = 30
    seed: int = 42
    threads: int = 1
    satt_heads: int = 4
    satt_alpha: float = 1.0
    txn_pad_len: int = 30
    txn_segments: int = 30
    txn_kernel: int = 3
    txn_channels: int = 64
    txn_blocks: int = 1

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}, expected one of {tuple(MODELS)}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}, expected one of {OPTIMIZERS}")
        if self.lr < 0.0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.adam_eps <= 0.0:
            raise ConfigError(f"adam_eps must be positive, got {self.adam_eps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


@dataclass
class SgdMomentum:
    """Classical momentum: v <- m*v + g; p <- p - lr*v."""

    lr: float
    momentum: float = 0.9
    velocity: dict[str, np.ndarray] = field(default_factory=dict)

    def step(self, named_params: list[tuple[str, Value]]) -> None:
        for name, p in named_params:
            vel = self.velocity.get(name)
            if vel is None:
                vel = np.zeros_like(p.data)
                self.velocity[name] = vel
            vel *= self.momentum
            vel += p.grad
            p.data -= self.lr * vel


@dataclass
class Adam:
    """Adam with bias correction."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def step(self, named_params: list[tuple[str, Value]]) -> None:
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


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return SgdMomentum(lr=cfg.lr, momentum=cfg.momentum)
    return Adam(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def model_kwargs(cfg: TrainConfig) -> dict:
    """The architecture knobs that must survive a checkpoint round trip."""
    return {key: getattr(cfg, field_name)
            for key, field_name in MODELS[cfg.model].CONFIG_FIELDS.items()}


def build_model(model: str, modalities: list[tuple[str, int]], num_classes: int,
                kwargs: dict, gen: np.random.Generator):
    cls = MODELS.get(model)
    if cls is None:
        raise ConfigError(f"unknown model {model!r}, expected one of {tuple(MODELS)}")
    missing = sorted(set(cls.CONFIG_FIELDS) - set(kwargs))
    unknown = sorted(set(kwargs) - set(cls.CONFIG_FIELDS))
    if missing or unknown:
        raise DataError(f"{model} model_kwargs: missing {missing}, unknown {unknown}")
    if not all(isinstance(v, (int, float)) for v in kwargs.values()):
        raise DataError(f"{model} model_kwargs must be numbers, got {kwargs}")
    return cls.from_kwargs(modalities, num_classes, kwargs, gen)


def batch_logits(model: str, params, batch: list[VideoSample], mode: str) -> Value:
    """Logits [B x K] in batch order, from one forward graph for the batch."""
    seqs = [{m: Value(f) for m, f in s.by_modality().items()} for s in batch]
    return MODELS[model].forward_batch(params, seqs, mode)


def snapshot_arrays(params) -> dict[str, np.ndarray]:
    arrays = {name: v.data.copy() for name, v in params.parameters()}
    arrays.update({name: buf.copy() for name, buf in params.buffers()})
    return arrays


def restore_arrays(params, arrays: dict[str, np.ndarray]) -> None:
    targets = [(name, v.data) for name, v in params.parameters()] + params.buffers()
    expected = [name for name, _ in targets]
    missing = [n for n in expected if n not in arrays]
    extra = [n for n in arrays if n not in expected]
    if missing or extra:
        raise DataError(f"checkpoint arrays mismatch: missing={missing} extra={extra}")
    for name, target in targets:
        if arrays[name].shape != target.shape:
            raise DataError(f"array {name!r} shape {arrays[name].shape}, "
                            f"expected {target.shape}")
        if not np.all(np.isfinite(arrays[name])):
            raise DataError(f"array {name!r} holds non-finite values")
    for name, target in targets:
        target[...] = arrays[name]


def save_model(path, model: str, params, kwargs: dict, meta_extra: dict | None = None) -> None:
    meta = {"model": model,
            "num_classes": params.num_classes,
            "modalities": params.modalities,
            "model_kwargs": kwargs}
    if meta_extra:
        meta.update(meta_extra)
    write_checkpoint(path, snapshot_arrays(params), meta)


def _is_int(value) -> bool:
    """A JSON integer; JSON true and false load as bools, which count as ints in Python."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_model(path):
    """Rebuild (model_name, params, meta) from a checkpoint file."""
    arrays, meta = read_checkpoint(path)
    if not isinstance(meta, dict):
        raise DataError("checkpoint metadata must be a JSON object")
    for key in ("model", "num_classes", "modalities", "model_kwargs"):
        if key not in meta:
            raise DataError(f"checkpoint metadata missing {key!r}")
    model, modalities = meta["model"], meta["modalities"]
    num_classes, kwargs = meta["num_classes"], meta["model_kwargs"]
    if not isinstance(model, str) or model not in MODELS:
        raise DataError(f"checkpoint names unknown model {model!r}")
    if not (isinstance(modalities, list)
            and all(isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
                    and _is_int(pair[1]) and pair[1] >= 1 for pair in modalities)):
        raise DataError(f"checkpoint modalities must be [name, dim >= 1] pairs, got {modalities!r}")
    if not _is_int(num_classes) or num_classes < 2:
        raise DataError(f"checkpoint num_classes must be an integer >= 2, got {num_classes!r}")
    if not isinstance(kwargs, dict):
        raise DataError(f"checkpoint model_kwargs must be a JSON object, got {kwargs!r}")
    params = build_model(model, [(m, d) for m, d in modalities], num_classes, kwargs, rng(0))
    restore_arrays(params, arrays)
    return model, params, meta


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(model: str, params, samples: list[VideoSample], threads: int = 1) -> ScoreTable:
    """Score every sample in infer mode; threading never changes the bytes.

    Samples are scored in fixed chunks of EVAL_CHUNK in dataset order, one
    forward graph per chunk.  Workers score disjoint chunks against
    read-only parameters and results are gathered in dataset order, so the
    table is identical for any thread count.
    """
    if not samples:
        raise DataError("nothing to evaluate")
    chunks = [samples[i:i + EVAL_CHUNK] for i in range(0, len(samples), EVAL_CHUNK)]

    def score(chunk: list[VideoSample]) -> np.ndarray:
        return batch_logits(model, params, chunk, "infer").data

    if threads <= 1:
        logits = [score(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            logits = list(pool.map(score, chunks))
    table = ScoreTable(num_classes=params.num_classes)
    for chunk, rows in zip(chunks, logits):
        for s, row in zip(chunk, rows):
            table.add(s.video_id, softmax_scores(row))
    return table


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    val_top1: float
    val_top5: float


@dataclass
class MetricsReport:
    model: str
    num_classes: int
    epochs: list[EpochMetrics]
    best_epoch: int
    best_top1: float
    best_top5: float
    wall_seconds: float

    def to_text(self) -> str:
        """Serialized metrics; deliberately excludes wall-clock time."""
        lines = [f"model={self.model}",
                 f"classes={self.num_classes}",
                 f"epochs={len(self.epochs)}",
                 f"best_epoch={self.best_epoch}",
                 f"best_val_top1={self.best_top1:.9g}",
                 f"best_val_top5={self.best_top5:.9g}",
                 "epoch,train_loss,val_top1,val_top5"]
        for e in self.epochs:
            lines.append(f"{e.epoch},{e.train_loss:.9g},{e.val_top1:.9g},{e.val_top5:.9g}")
        return "\n".join(lines) + "\n"


@dataclass
class TrainResult:
    report: MetricsReport
    best_arrays: dict[str, np.ndarray]
    best_table: ScoreTable
    params: object
    kwargs: dict


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def train(cfg: TrainConfig, train_samples: list[VideoSample],
          val_samples: list[VideoSample], progress=None) -> TrainResult:
    started = time.perf_counter()
    if not train_samples or not val_samples:
        raise DataError("train and validation splits must both be non-empty")
    dims = modality_dims(train_samples)
    for name, d in modality_dims(val_samples).items():
        if dims.get(name) != d:
            raise DataError(f"validation modality {name!r} does not match training data")
    num_classes = 1 + max(s.label for s in train_samples + val_samples)
    if num_classes < 2:
        raise DataError("need at least two classes to train a classifier")

    modalities = list(dims.items())
    kwargs = model_kwargs(cfg)
    params = build_model(cfg.model, modalities, num_classes, kwargs, rng(cfg.seed))
    named = params.parameters()
    optimizer = make_optimizer(cfg)
    val_labels = {s.video_id: s.label for s in val_samples}
    top_k = min(5, num_classes)

    history: list[EpochMetrics] = []
    best: tuple[float, int] | None = None
    best_arrays: dict[str, np.ndarray] = {}
    best_table: ScoreTable | None = None
    # a diverging run overflows before its loss turns non-finite; the loss
    # guard reports that once, so NumPy's floating-point warnings stay quiet
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.epochs):
            loss_sum = 0.0
            batches = batch_iter(train_samples, cfg.batch_size, (cfg.seed, epoch))
            for step, batch in enumerate(batches):
                zero_grads(v for _, v in named)
                logits = batch_logits(cfg.model, params, batch, "train")
                loss = ad.cross_entropy(logits, [s.label for s in batch])
                if not np.isfinite(loss.data):
                    raise NumericError(f"training loss is {float(loss.data)} at epoch {epoch}, "
                                       f"batch {step}; try a smaller lr")
                ad.backward(loss)
                optimizer.step(named)
                loss_sum += float(loss.data) * len(batch)
            train_loss = loss_sum / len(train_samples)

            table = evaluate(cfg.model, params, val_samples, threads=cfg.threads)
            top1 = top_k_accuracy(table, val_labels, 1)
            top5 = top_k_accuracy(table, val_labels, top_k)
            history.append(EpochMetrics(epoch=epoch, train_loss=train_loss,
                                        val_top1=top1, val_top5=top5))
            if progress is not None:
                progress(f"epoch {epoch}: train_loss={train_loss:.4f} "
                         f"val_top1={top1:.4f} val_top{top_k}={top5:.4f}")
            if best is None or top1 > best[0]:
                best = (top1, epoch)
                best_arrays = snapshot_arrays(params)
                best_table = table

    assert best is not None and best_table is not None
    best_epoch = best[1]
    report = MetricsReport(model=cfg.model, num_classes=num_classes, epochs=history,
                           best_epoch=best_epoch, best_top1=best[0],
                           best_top5=history[best_epoch].val_top5,
                           wall_seconds=time.perf_counter() - started)
    restore_arrays(params, best_arrays)
    return TrainResult(report=report, best_arrays=best_arrays, best_table=best_table,
                       params=params, kwargs=kwargs)


def train_from_files(cfg: TrainConfig, train_path, val_path, progress=None) -> TrainResult:
    return train(cfg, read_mmf(train_path), read_mmf(val_path), progress=progress)
