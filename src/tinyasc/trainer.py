"""Training protocol: Adam, categorical cross-entropy, plateau schedule.

The loop runs at most 500 epochs, halves the learning rate after 15
consecutive epochs without a strict improvement of the monitored
validation accuracy, and stops after 30. "Improvement" means a strict
increase of the best value seen so far; ties do not reset either counter,
and the first monitored value always establishes the baseline. Best
weights (by the monitor) are restored when training ends.

Validation is a seeded 90/10 split of the provided examples. Per-epoch
``train_loss`` is the mean train-mode batch loss; ``train_acc`` and the
validation metrics come from a dropout-free inference pass at epoch end.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import zoo
from .errors import TinyAscError, TrainingDivergedError

PROB_CLAMP = 1e-12


@dataclass
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7


@dataclass
class TrainingConfig:
    max_epochs: int = 500
    early_stop_patience: int = 30
    lr_plateau_patience: int = 15
    lr_factor: float = 0.5
    adam: AdamConfig = field(default_factory=AdamConfig)
    batch_size: int = 64
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.early_stop_patience < 1 or self.lr_plateau_patience < 1:
            raise ValueError("patience values must be positive")
        if not 0.0 < self.lr_factor < 1.0:
            raise ValueError(f"lr_factor must be in (0, 1), got {self.lr_factor}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


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


def categorical_crossentropy(pred, target_onehot):
    """-log of the predicted probability at the one-hot target class."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target_onehot)
    p = np.clip((pred * target).sum(axis=-1), PROB_CLAMP, 1.0)
    return float(-np.log(p)) if p.ndim == 0 else -np.log(p)


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
    """Tracks the monitored value, plateau halvings, and the stop signal."""

    def __init__(self, cfg: TrainingConfig, lr0: float):
        self.cfg = cfg
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
        if self.plateau_wait >= self.cfg.lr_plateau_patience:
            self.lr *= self.cfg.lr_factor
            self.plateau_wait = 0
            halved = True
        return False, halved, self.stop_wait >= self.cfg.early_stop_patience


def _replay(history, cfg):
    monitor = PlateauMonitor(cfg, lr0=1.0)
    events = []
    stopped_at = None
    for epoch, value in enumerate(history, start=1):
        _, halved, stop = monitor.update(value)
        if halved:
            events.append(epoch)
        if stop and stopped_at is None:
            stopped_at = epoch
    return events, stopped_at, monitor


def lr_schedule_update(history, current_lr, cfg=None):
    """New learning rate after the last epoch in ``history``.

    Halves ``current_lr`` exactly when the final history entry completes a
    15-epoch run without strict improvement; otherwise returns it
    unchanged.
    """
    cfg = cfg or TrainingConfig()
    events, _, _ = _replay(history, cfg)
    if events and events[-1] == len(history):
        return current_lr * cfg.lr_factor
    return current_lr


def early_stop_check(history, cfg=None):
    """True once 30 consecutive epochs pass without strict improvement."""
    cfg = cfg or TrainingConfig()
    _, stopped_at, _ = _replay(history, cfg)
    return stopped_at is not None


def validate_run_invariants(run: TrainRun, cfg: TrainingConfig = None):
    """Assert the schedule invariants over a recorded history.

    The learning rate never increases, every change is exactly one
    halving, and the run is no longer than max_epochs.
    """
    cfg = cfg or TrainingConfig()
    lrs = [r.lr for r in run.epochs]
    if len(lrs) > cfg.max_epochs:
        raise AssertionError(f"run length {len(lrs)} exceeds max_epochs {cfg.max_epochs}")
    for prev, cur in zip(lrs, lrs[1:]):
        if not (
            math.isclose(cur, prev, rel_tol=1e-12)
            or math.isclose(cur, prev * cfg.lr_factor, rel_tol=1e-12)
        ):
            raise AssertionError(f"lr moved from {prev} to {cur}; expected same or x{cfg.lr_factor}")
    return True


def _loss_grad(probs, labels, n_classes):
    """Mean cross-entropy over the batch and its gradient w.r.t. the probabilities."""
    n = probs.shape[0]
    p_true = np.clip(probs[np.arange(n), labels], PROB_CLAMP, 1.0)
    loss = float(-np.log(p_true).mean())
    grad = np.zeros_like(probs)
    grad[np.arange(n), labels] = -1.0 / (n * p_true)
    return loss, grad


def _infer_metrics(model, xs, ys):
    probs, _ = zoo.forward_batch(model, xs)
    loss, _ = _loss_grad(probs.astype(np.float64), ys, model.n_classes)
    acc = float((probs.argmax(axis=1) == ys).mean())
    return loss, acc


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
    xs_all = zoo.stack_inputs(model, [spec for spec, _ in examples], model.dtype)
    ys_all = np.array([label for _, label in examples], dtype=np.int64)
    xs_tr, ys_tr = xs_all[train_idx], ys_all[train_idx]
    xs_va, ys_va = xs_all[val_idx], ys_all[val_idx]

    params = {
        (i, name): layer.weights[name]
        for i, layer in enumerate(model.layers)
        for name in zoo.TRAINABLE_WEIGHTS.get(layer.kind, ())
        if name in layer.weights
    }
    state = AdamState.init(params)
    monitor = PlateauMonitor(cfg, lr0=cfg.adam.lr)
    hyper = AdamConfig(**vars(cfg.adam))

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
            xb, yb = xs_tr[sel], ys_tr[sel]
            probs, _, caches = zoo.run_graph(model, xb, train=True, rng=rng, keep_caches=True)
            loss, grad_p = _loss_grad(probs.astype(np.float64), yb, model.n_classes)
            if not math.isfinite(loss):
                zoo.restore_weights(model, last_good)
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}; restored last finite checkpoint",
                    history=records,
                )
            epoch_losses.append(loss)
            grads = _collect_grads(model, caches, grad_p.astype(probs.dtype))
            try:
                new_params, state = adam_step(params, grads, state, hyper)
            except TrainingDivergedError:
                zoo.restore_weights(model, last_good)
                raise TrainingDivergedError(
                    f"non-finite gradient at epoch {epoch}; restored last finite checkpoint",
                    history=records,
                )
            params = new_params
            for (i, name), arr in params.items():
                model.layers[i].weights[name] = arr

        last_good = zoo.copy_weights(model)
        train_loss = float(np.mean(epoch_losses))
        _, train_acc = _infer_metrics(model, xs_tr, ys_tr)
        val_loss, val_acc = _infer_metrics(model, xs_va, ys_va)
        records.append(EpochRecord(epoch, train_loss, train_acc, val_loss, val_acc, hyper.lr))

        improved, halved, stop = monitor.update(val_acc)
        if improved:
            best_snapshot = zoo.copy_weights(model)
            best_epoch = epoch
        if halved:
            hyper.lr = monitor.lr
        if stop:
            stop_reason = "early_stop"
            break

    zoo.restore_weights(model, best_snapshot)
    return model, TrainRun(epochs=records, stop_reason=stop_reason, best_epoch=best_epoch)


def _collect_grads(model, caches, grad_probs):
    layer_grads, _ = zoo.backward_graph(model, caches, grad_probs)
    grads = {}
    for i, per_layer in layer_grads.items():
        for name, g in per_layer.items():
            grads[(i, name)] = g
    return grads
