"""Accuracy and multiclass log loss, the one statement of each score, plus
batch evaluation; training's loss is ``log_loss`` too, at its clamp."""

from dataclasses import dataclass

import numpy as np

from . import zoo
from .errors import TinyAscError

LOG_LOSS_CLAMP = 1e-15


@dataclass
class EvalResult:
    accuracy: float
    log_loss: float
    n_examples: int
    confusion: np.ndarray  # confusion[true, predicted] counts


def _checked(preds, labels):
    """``preds`` as float64 and ``labels`` as an array, after the one check both
    metrics make: as many labels as predictions, at least one, and each label a
    class of ``preds`` (``zoo.check_labels``); any other input raises TinyAscError."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels)
    if preds.shape[0] != labels.shape[0]:
        raise TinyAscError(f"{preds.shape[0]} predictions vs {labels.shape[0]} labels")
    if preds.shape[0] == 0:
        raise TinyAscError("empty dataset")
    return preds, zoo.check_labels(labels, preds.shape[1])


def accuracy(preds, labels):
    """Fraction of argmax predictions matching labels; ties go to the lowest index. Inputs as ``_checked``."""
    preds, labels = _checked(preds, labels)
    return float((preds.argmax(axis=1) == labels).mean())


def log_loss(preds, labels):
    """Mean -ln of the probability assigned to the true class, clamped at ``LOG_LOSS_CLAMP``. Inputs as ``_checked``."""
    preds, labels = _checked(preds, labels)
    p = np.clip(preds[np.arange(len(labels)), labels], LOG_LOSS_CLAMP, 1.0)
    return float(-np.log(p).mean())


def evaluate(model, examples) -> EvalResult:
    """Inference-mode evaluation over (Spectrogram, label) pairs, by one
    ``zoo.predictor`` of ``model``."""
    if not examples:
        raise TinyAscError("empty dataset")
    xs, ys = zoo.stack_examples(model, examples)
    probs, _ = zoo.predictor(model)(xs)
    n = model.n_classes
    confusion = np.zeros((n, n), dtype=np.int64)
    top = probs.argmax(axis=1)
    for true, pred in zip(ys, top):
        confusion[true, pred] += 1
    return EvalResult(
        accuracy=accuracy(probs, ys),
        log_loss=log_loss(probs, ys),
        n_examples=len(examples),
        confusion=confusion,
    )


def format_report(result: EvalResult, class_names=None) -> str:
    """Aligned text report of the evaluation result; fewer ``class_names``
    than the result has classes raises TinyAscError."""
    lines = [
        f"examples   {result.n_examples}",
        f"accuracy   {result.accuracy:.4f}",
        f"log_loss   {result.log_loss:.4f}",
        "",
        "confusion (rows = true class, columns = predicted):",
    ]
    n = result.confusion.shape[0]
    names = class_names or [str(i) for i in range(n)]
    if len(names) < n:
        raise TinyAscError(f"{len(names)} class names for a result of {n} classes")
    width = max(len(str(x)) for x in result.confusion.flat) if result.confusion.size else 1
    width = max(width, 2)
    for i in range(n):
        row = " ".join(f"{int(v):>{width}d}" for v in result.confusion[i])
        lines.append(f"{names[i]:>18s}  {row}")
    return "\n".join(lines) + "\n"


def confusion_to_csv(result: EvalResult) -> str:
    return "\n".join(",".join(str(int(v)) for v in row) for row in result.confusion) + "\n"


def result_to_csv(result: EvalResult) -> str:
    return (
        "metric,value\n"
        f"accuracy,{result.accuracy:.10g}\n"
        f"log_loss,{result.log_loss:.10g}\n"
        f"n_examples,{result.n_examples}\n"
    )
