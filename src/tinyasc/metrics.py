"""Accuracy and multiclass log loss, plus batch evaluation."""

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


def accuracy(preds, labels):
    """Fraction of argmax predictions matching labels; ties go to the lowest index."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels)
    if preds.shape[0] != labels.shape[0]:
        raise TinyAscError(f"{preds.shape[0]} predictions vs {labels.shape[0]} labels")
    if preds.shape[0] == 0:
        raise TinyAscError("empty dataset")
    return float((preds.argmax(axis=1) == labels).mean())


def log_loss(preds, labels):
    """Mean -ln of the probability assigned to the true class, clamped at 1e-15."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels)
    if preds.shape[0] == 0:
        raise TinyAscError("empty dataset")
    p = np.clip(preds[np.arange(len(labels)), labels], LOG_LOSS_CLAMP, 1.0)
    return float(-np.log(p).mean())


def evaluate(model, examples) -> EvalResult:
    """Inference-mode evaluation over (Spectrogram, label) pairs."""
    if not examples:
        raise TinyAscError("empty dataset")
    xs = zoo.stack_inputs(model, [spec for spec, _ in examples], model.dtype)
    ys = np.array([label for _, label in examples], dtype=np.int64)
    probs, _ = zoo.forward_batch(model, xs)
    probs = probs.astype(np.float64)
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
    """Aligned text report of the evaluation result."""
    lines = [
        f"examples   {result.n_examples}",
        f"accuracy   {result.accuracy:.4f}",
        f"log_loss   {result.log_loss:.4f}",
        "",
        "confusion (rows = true class, columns = predicted):",
    ]
    n = result.confusion.shape[0]
    names = class_names or [str(i) for i in range(n)]
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
