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
field), ``check_kwargs`` (the bounds on those values), ``from_kwargs``,
``sizes_from_arrays`` (the ``model_kwargs`` sizes and feature dims that a
checkpoint's arrays fix), ``prepare`` (each video's per-modality frame
arrays -> its model inputs, checked, with every parameter-free computation
done: txn's pooled clips and meanpool's frame means, so their forwards only
stack; satt's inputs are each sequence's frames and canonical order, which
each forward gathers again, since a reordered copy of every frame raises a
satt training run's peak memory by about 11%), ``forward_batch`` (prepared
inputs [B] -> logits [B x K], one graph), the named trainable leaves
``parameters()``, ``checkpoint_arrays()`` (a checkpoint's arrays by name, in
file order, as views of the model's storage) and its modalities.

Every ``TrainConfig`` field has exactly its default's type (an int is never
a float or a bool), which ``check_type`` tests before any range, the seed
or the model's ``check_kwargs`` bounds, all before any file is read; so
nothing casts a ``model_kwargs`` size, and ``check_model_kwargs`` holds a
checkpoint's to the same rule.  Every model is built by ``build_model``, the
one check of its shape (class count, modalities and ``model_kwargs``); the
constructors behind ``from_kwargs`` check nothing.

Each split is prepared once, by its holder: ``train`` prepares both splits
per call, and ``evaluate`` prepares samples handed to it without their
inputs chunk by chunk, as it scores them.

``train`` packs the model's parameters into one flat arena
(``autodiff.pack``): each parameter's values and gradient are views of one
float64 vector each, so a step zeroes the gradients with one fill and the
optimizers update every parameter with a few in-place vector operations.

Wall-clock time is reported on the in-memory result only; it never enters
any serialized artifact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Value, check_seeds, rng, zero_grads
from .data import (
    VideoSample,
    array_extent,
    batch_iter,
    check_line_ids,
    check_type,
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
# amortizes per-op overhead while keeping the chunk's arrays small; chunks are
# cut from the samples in frame-count order, so most of a chunk's videos share
# their frame counts and satt's length grouping runs few blocks per chunk
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
    satt_heads: int = 4
    satt_alpha: float = 1.0
    txn_pad_len: int = 30
    txn_segments: int = 30
    txn_kernel: int = 3
    txn_channels: int = 64
    txn_blocks: int = 1

    def __post_init__(self):
        for f in fields(self):
            check_type(f.name, getattr(self, f.name), f.default)
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}, expected one of {tuple(MODELS)}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}, expected one of {OPTIMIZERS}")
        if not 0.0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be >= 0 and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ConfigError("adam betas must lie in [0, 1)")
        if not 0.0 < self.adam_eps < math.inf:
            raise ConfigError(f"adam_eps must be positive and finite, got {self.adam_eps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        check_seeds(self.seed)
        MODELS[self.model].check_kwargs(model_kwargs(self))


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


@dataclass
class SgdMomentum:
    """Classical momentum on a flat parameter leaf: v <- m*v + g; p <- p - lr*v."""

    lr: float
    momentum: float = 0.9
    velocity: np.ndarray | None = None
    _scratch: np.ndarray | None = field(default=None, init=False, repr=False)

    def step(self, flat: Value) -> None:
        if self.velocity is None:
            self.velocity = np.zeros_like(flat.data)
            self._scratch = np.empty_like(flat.data)
        vel, s = self.velocity, self._scratch
        vel *= self.momentum
        vel += flat.grad
        np.multiply(self.lr, vel, out=s)
        flat.data -= s


@dataclass
class Adam:
    """Adam with bias correction on a flat parameter leaf.

    Every step runs in place on whole vectors, in the per-element order
    m <- b1*m + (1-b1)*g, v <- b2*v + ((1-b2)*g)*g,
    p <- p - (lr*(m/c1)) / (sqrt(v/c2) + eps).
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    _scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def step(self, flat: Value) -> None:
        if self.m is None:
            self.m, self.v = np.zeros_like(flat.data), np.zeros_like(flat.data)
            self._scratch = (np.empty_like(flat.data), np.empty_like(flat.data))
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        m, v, (s, u), g = self.m, self.v, self._scratch, flat.grad
        np.multiply(self.beta1, m, out=m)
        np.multiply(1.0 - self.beta1, g, out=s)
        m += s
        np.multiply(self.beta2, v, out=v)
        np.multiply(1.0 - self.beta2, g, out=s)
        s *= g
        v += s
        np.divide(m, c1, out=s)
        np.multiply(self.lr, s, out=s)
        np.divide(v, c2, out=u)
        np.sqrt(u, out=u)
        u += self.eps
        s /= u
        flat.data -= s


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


def check_model_kwargs(model: str, kwargs: dict) -> None:
    """Raise ConfigError unless each value has its default's type and the bounds hold."""
    cls = MODELS[model]
    for key, field_name in cls.CONFIG_FIELDS.items():
        check_type(f"{model} {key}", kwargs[key], getattr(TrainConfig, field_name))
    cls.check_kwargs(kwargs)


def build_model(model: str, modalities: list[tuple[str, int]], num_classes: int,
                kwargs: dict, gen: np.random.Generator, arrays: dict | None = None):
    """A freshly initialized model, from a train config or a checkpoint.

    The one check of a model's shape, from a train config or checkpoint
    metadata; the constructors check nothing.  In order: the model name,
    the class count, the modalities (a list of pairs), the kwargs (a dict:
    keys, then values), each value's type before it is hashed or compared.
    Given a checkpoint's arrays, every size that shapes an array (the class
    count, the modality dims and the kwargs the model's
    ``sizes_from_arrays`` names) must then agree with them, and last
    ``check_model_kwargs``, so that a forged size cannot make the build
    loop or allocate without bound.
    """
    cls = MODELS.get(model) if isinstance(model, str) else None
    if cls is None:
        raise ConfigError(f"unknown model {model!r}, expected one of {tuple(MODELS)}")
    if type(num_classes) is not int or num_classes < 2:
        raise DataError(f"num_classes must be an integer >= 2, got {num_classes!r}")
    if not (isinstance(modalities, list) and modalities
            and all(isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in modalities)
            and all(isinstance(m, str) and type(d) is int and d >= 1 for m, d in modalities)
            and len({m for m, _ in modalities}) == len(modalities)):
        raise DataError(f"modalities must be (name, dim >= 1) pairs with distinct names, "
                        f"at least one, got {modalities!r}")
    if not isinstance(kwargs, dict) or set(kwargs) != set(cls.CONFIG_FIELDS):
        raise DataError(f"{model} model_kwargs must be a dict of {sorted(cls.CONFIG_FIELDS)}, "
                        f"got {kwargs!r}")
    # a JSON number is an int, which is finite, or a float, which may not be
    if not all(isinstance(v, int) or isinstance(v, float) and math.isfinite(v)
               for v in kwargs.values()):
        raise DataError(f"{model} model_kwargs must be finite numbers, got {kwargs}")
    if arrays is not None:
        claimed = {"num_classes": num_classes, **kwargs,
                   "summed dims": sum(d for _, d in modalities),
                   **{f"dim of {m!r}": d for m, d in modalities}}
        implied = {"num_classes": array_extent(arrays, "classifier.b", 0, 1),
                   **cls.sizes_from_arrays(modalities, arrays)}
        wrong = {key: claimed[key] for key, n in implied.items() if claimed[key] != n}
        if wrong:
            raise DataError(f"{model} sizes {wrong} disagree with the checkpoint arrays, "
                            f"which imply {implied}")
    check_model_kwargs(model, kwargs)
    return cls.from_kwargs(modalities, num_classes, kwargs, gen)


def batch_logits(model: str, params, batch: list[VideoSample], mode: str,
                 inputs: list | None = None) -> Value:
    """Logits [B x K] in batch order, from one forward graph for the batch.

    inputs are the batch's model inputs if they are prepared already;
    otherwise the batch is prepared here.  model must name params' class.
    """
    if MODELS.get(model) is not type(params):
        raise ConfigError(f"model {model!r} does not name params of class {type(params).__name__}")
    if inputs is None:
        inputs = params.prepare([s.by_modality() for s in batch])
    return params.forward_batch(inputs, mode)


def snapshot_arrays(params) -> dict[str, np.ndarray]:
    return {name: view.copy() for name, view in params.checkpoint_arrays()}


def restore_arrays(params, arrays: dict[str, np.ndarray]) -> None:
    targets = params.checkpoint_arrays()
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


def load_model(path):
    """Rebuild (model_name, params, meta) from a checkpoint file."""
    arrays, meta = read_checkpoint(path)
    if not isinstance(meta, dict):
        raise DataError("checkpoint metadata must be a JSON object")
    for key in ("model", "num_classes", "modalities", "model_kwargs"):
        if key not in meta:
            raise DataError(f"checkpoint metadata missing {key!r}")
    params = build_model(meta["model"], meta["modalities"], meta["num_classes"],
                         meta["model_kwargs"], rng(0), arrays)
    restore_arrays(params, arrays)
    return meta["model"], params, meta


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(model: str, params, samples: list[VideoSample], threads: int = 1, *,
             inputs: list | None = None) -> ScoreTable:
    """Score every sample in infer mode; the table lists them in dataset order.

    Samples are sorted by their (modality, T) pairs, ties in dataset order,
    and scored in chunks of EVAL_CHUNK cut from that order, one forward graph
    per chunk on its slice of ``inputs``, the samples' prepared inputs (if
    None, each chunk is prepared as it is scored, so scoring holds one
    chunk's inputs at a time); one softmax and one validation cover the
    table.  Rows equal those of chunks cut in dataset order bit for bit,
    except that a chunk of one video (N % EVAL_CHUNK == 1) runs its affine
    map as a matrix-vector product, whose last bit can differ from a matrix
    product's: up to two rows can move by about 1 ulp.  Evaluation runs on
    the calling thread; ``threads`` must be an int >= 1 and changes nothing.
    """
    if type(threads) is not int:
        raise ConfigError(f"threads must be an int, got {threads!r}")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if not samples:
        raise DataError("nothing to evaluate")
    counts = [sorted((q.modality, len(q.features)) for q in s.sequences) for s in samples]
    order = sorted(range(len(samples)), key=counts.__getitem__)
    logits = np.empty((len(samples), params.num_classes))
    for start in range(0, len(order), EVAL_CHUNK):
        rows = order[start:start + EVAL_CHUNK]
        part = None if inputs is None else [inputs[i] for i in rows]
        logits[rows] = batch_logits(model, params, [samples[i] for i in rows], "infer", part).data
    return ScoreTable(params.num_classes, [s.video_id for s in samples], softmax_scores(logits))


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
    # refused before the first epoch, so no run writes a checkpoint and then fails on its scores
    check_line_ids((s.video_id for s in val_samples), "score table")

    modalities = list(dims.items())
    kwargs = model_kwargs(cfg)
    params = build_model(cfg.model, modalities, num_classes, kwargs, rng(cfg.seed))
    flat = ad.pack(v for _, v in params.parameters())
    inputs = params.prepare([s.by_modality() for s in train_samples])
    val_inputs = params.prepare([s.by_modality() for s in val_samples])
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
            batches = batch_iter(range(len(train_samples)), cfg.batch_size, (cfg.seed, epoch))
            for step, rows in enumerate(batches):
                batch = [train_samples[i] for i in rows]
                zero_grads([flat])
                logits = batch_logits(cfg.model, params, batch, "train", [inputs[i] for i in rows])
                loss = ad.cross_entropy(logits, [s.label for s in batch])
                if not np.isfinite(loss.data):
                    raise NumericError(f"training loss is {float(loss.data)} at epoch {epoch}, "
                                       f"batch {step}; try a smaller lr")
                ad.backward(loss)
                optimizer.step(flat)
                loss_sum += float(loss.data) * len(batch)
            train_loss = loss_sum / len(train_samples)

            table = evaluate(cfg.model, params, val_samples, inputs=val_inputs)
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
