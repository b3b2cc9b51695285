"""Training protocol: Adam, categorical cross-entropy, plateau schedule.

The loop runs at most 500 epochs, halves the learning rate after 15
consecutive epochs without a strict improvement of the monitored
validation accuracy, and stops after 30; ``PlateauMonitor`` is that
schedule, and ``train`` the one loop that runs it. "Improvement" means a
strict increase of the best value seen so far; ties do not reset either
counter, and the first monitored value always establishes the baseline.
Best weights (by the monitor) are restored when training ends.

Validation is a seeded 90/10 split of the provided examples. Per-epoch
``train_loss`` is the mean train-mode batch loss; ``train_acc`` and the
validation metrics are ``metrics.accuracy`` and ``metrics.log_loss`` of a
dropout-free inference pass at epoch end, by one ``zoo.predictor`` built
there. The batch loss is ``metrics.log_loss`` too, at its clamp.
"""

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import metrics, zoo
from .errors import ConfigError, TinyAscError, TrainingDivergedError


@dataclass
class AdamConfig:
    lr: float = 1e-3
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-7


@dataclass
class TrainingConfig:
    """The four settings of a run; the rest of the protocol is constant.

    Settings: ``max_epochs``, ``adam`` (its learning rate), ``batch_size``
    and ``seed``. Constants: ``early_stop_patience`` 30,
    ``lr_plateau_patience`` 15, ``lr_factor`` 0.5 and ``val_fraction`` 0.1,
    plus Adam's ``beta1``, ``beta2`` and ``eps`` on ``AdamConfig``.
    """

    max_epochs: int = 500
    adam: AdamConfig = field(default_factory=AdamConfig)
    batch_size: int = 64
    seed: int = 0
    early_stop_patience: ClassVar[int] = 30
    lr_plateau_patience: ClassVar[int] = 15
    lr_factor: ClassVar[float] = 0.5
    val_fraction: ClassVar[float] = 0.1

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.adam.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.adam.lr}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    lr: float


@dataclass
class TrainRun:
    """Epoch-indexed history plus why and where training stopped."""

    epochs: list
    stop_reason: str
    best_epoch: int

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,train_acc,val_loss,val_acc,lr"]
        for r in self.epochs:
            lines.append(
                f"{r.epoch},{r.train_loss:.10g},{r.train_acc:.10g},"
                f"{r.val_loss:.10g},{r.val_acc:.10g},{r.lr:.10g}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def init(cls, params):
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(params, grads, state, hyper):
    """One bias-corrected Adam update over a dict of parameter arrays.

    Functional: returns (new_params, new_state). Raises on non-finite
    gradients so the caller can abort the epoch with a diagnostic.
    """
    for key, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient for parameter {key}")
    t = state.t + 1
    new_params, new_m, new_v = {}, {}, {}
    bc1 = 1.0 - hyper.beta1**t
    bc2 = 1.0 - hyper.beta2**t
    for key, p in params.items():
        g = grads[key]
        m = hyper.beta1 * state.m[key] + (1.0 - hyper.beta1) * g
        v = hyper.beta2 * state.v[key] + (1.0 - hyper.beta2) * g * g
        update = hyper.lr * (m / bc1) / (np.sqrt(v / bc2) + hyper.eps)
        new_params[key] = p - update.astype(p.dtype)
        new_m[key], new_v[key] = m, v
    return new_params, AdamState(m=new_m, v=new_v, t=t)


class PlateauMonitor:
    """The schedule: tracks the monitored value, the learning rate ``lr`` with
    its plateau halvings, and the stop signal."""

    def __init__(self, lr0: float):
        self.lr = lr0
        self.best = -math.inf
        self.plateau_wait = 0
        self.stop_wait = 0

    def update(self, value):
        """Feed one epoch's monitored value; returns (improved, halved, stop)."""
        if value > self.best:
            self.best = value
            self.plateau_wait = 0
            self.stop_wait = 0
            return True, False, False
        self.plateau_wait += 1
        self.stop_wait += 1
        halved = False
        if self.plateau_wait >= TrainingConfig.lr_plateau_patience:
            self.lr *= TrainingConfig.lr_factor
            self.plateau_wait = 0
            halved = True
        return False, halved, self.stop_wait >= TrainingConfig.early_stop_patience


def _loss_grad(probs, labels):
    """``metrics.log_loss`` of the batch and its gradient w.r.t. the probabilities,
    the true class's probability clamped as there."""
    n = probs.shape[0]
    p_true = np.clip(probs[np.arange(n), labels], metrics.LOG_LOSS_CLAMP, 1.0)
    grad = np.zeros_like(probs)
    grad[np.arange(n), labels] = -1.0 / (n * p_true)
    return metrics.log_loss(probs, labels), grad


def train(model, examples, cfg: TrainingConfig = None):
    """Run the full protocol on (Spectrogram, label) pairs.

    Splits off a seeded validation fraction, trains with shuffled
    mini-batches (dropout active, batch norm in train mode), applies the
    plateau schedule and early stopping on validation accuracy, and
    restores the best-monitor weights before returning (model, TrainRun).
    """
    cfg = cfg or TrainingConfig()
    if not examples:
        raise TinyAscError("empty dataset")
    if len(examples) < 2:
        raise TinyAscError("need at least 2 examples to split train/validation")

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(examples))
    n_val = min(max(1, round(cfg.val_fraction * len(examples))), len(examples) - 1)
    val_idx, train_idx = order[:n_val], order[n_val:]
    xs_all, ys_all = zoo.stack_examples(model, examples)
    xs_tr, ys_tr = xs_all[train_idx], ys_all[train_idx]
    xs_va, ys_va = xs_all[val_idx], ys_all[val_idx]

    params = {
        (i, name): layer.weights[name]
        for i, layer in enumerate(model.layers)
        for name in zoo.TRAINABLE_WEIGHTS.get(layer.kind, ())
        if name in layer.weights
    }
    state = AdamState.init(params)
    monitor = PlateauMonitor(lr0=cfg.adam.lr)

    best_snapshot = zoo.copy_weights(model)
    best_epoch = 0
    last_good = zoo.copy_weights(model)
    records = []
    stop_reason = "max_epochs"

    for epoch in range(1, cfg.max_epochs + 1):
        epoch_losses = []
        perm = rng.permutation(len(xs_tr))
        for start in range(0, len(perm), cfg.batch_size):
            sel = perm[start : start + cfg.batch_size]
            probs, _, caches = zoo.run_graph(model, xs_tr[sel], train=True, rng=rng, keep_caches=True)
            loss, grad_p = _loss_grad(probs.astype(np.float64), ys_tr[sel])
            epoch_losses.append(loss)
            try:
                if not math.isfinite(loss):
                    raise TrainingDivergedError("non-finite loss")
                layer_grads, _ = zoo.backward_graph(model, caches, grad_p.astype(probs.dtype))
                grads = {(i, name): g for i, per_layer in layer_grads.items() for name, g in per_layer.items()}
                params, state = adam_step(params, grads, state, AdamConfig(lr=monitor.lr))
            except TrainingDivergedError:
                # a finite loss means adam_step refused the gradient
                zoo.restore_weights(model, last_good)
                what = "gradient" if math.isfinite(loss) else "loss"
                raise TrainingDivergedError(
                    f"non-finite {what} at epoch {epoch}; restored last finite checkpoint", history=records
                )
            for (i, name), arr in params.items():
                model.layers[i].weights[name] = arr

        last_good = zoo.copy_weights(model)
        train_loss = float(np.mean(epoch_losses))
        predict = zoo.predictor(model)
        train_acc = metrics.accuracy(predict(xs_tr)[0], ys_tr)
        val_probs, _ = predict(xs_va)
        val_loss, val_acc = metrics.log_loss(val_probs, ys_va), metrics.accuracy(val_probs, ys_va)
        records.append(EpochRecord(epoch, train_loss, train_acc, val_loss, val_acc, monitor.lr))

        improved, _, stop = monitor.update(val_acc)
        if improved:
            best_snapshot = zoo.copy_weights(model)
            best_epoch = epoch
        if stop:
            stop_reason = "early_stop"
            break

    zoo.restore_weights(model, best_snapshot)
    return model, TrainRun(epochs=records, stop_reason=stop_reason, best_epoch=best_epoch)

