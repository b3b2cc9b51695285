"""Accuracy / log-loss closed forms and oracle equivalence."""

import math
import re

import numpy as np
import pytest

from tinyasc import data, metrics, zoo
from tinyasc.errors import TinyAscError


def _naive_accuracy(preds, labels):
    correct = 0
    for p, label in zip(preds, labels):
        best, best_idx = -np.inf, 0
        for i, v in enumerate(p):
            if v > best:  # strict: ties keep the lowest index
                best, best_idx = v, i
        correct += int(best_idx == label)
    return correct / len(labels)


def _naive_log_loss(preds, labels):
    total = 0.0
    for p, label in zip(preds, labels):
        total += -math.log(min(max(p[label], 1e-15), 1.0))
    return total / len(labels)


class TestAccuracy:
    def test_all_correct(self):
        preds = np.eye(10)[[3, 1, 4]]
        assert metrics.accuracy(preds, np.array([3, 1, 4])) == 1.0

    def test_one_of_four(self):
        preds = np.eye(10)[[0, 1, 2, 3]]
        assert metrics.accuracy(preds, np.array([0, 9, 9, 9])) == 0.25

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        preds = rng.uniform(size=(1000, 10))
        labels = rng.integers(0, 10, size=1000)
        assert metrics.accuracy(preds, labels) == _naive_accuracy(preds, labels)

    def test_tie_breaks_to_lowest_index(self):
        preds = np.array([[0.5, 0.5, 0.0]])
        assert metrics.accuracy(preds, np.array([0])) == 1.0
        assert metrics.accuracy(preds, np.array([1])) == 0.0


class TestLogLoss:
    def test_uniform_closed_form(self):
        preds = np.full((7, 10), 0.1)
        labels = np.arange(7)
        assert abs(metrics.log_loss(preds, labels) - math.log(10)) < 1e-9

    def test_perfect_predictions(self):
        preds = np.eye(10)[[2, 5]]
        assert metrics.log_loss(preds, np.array([2, 5])) == 0.0

    def test_mixed_hand_case(self):
        # true-class probabilities 0.5 and 0.25: (ln 2 + ln 4) / 2
        preds = np.array([[0.5, 0.5, 0, 0, 0, 0, 0, 0, 0, 0],
                          [0.25, 0.75, 0, 0, 0, 0, 0, 0, 0, 0]])
        expected = (math.log(2) + math.log(4)) / 2
        np.testing.assert_allclose(metrics.log_loss(preds, np.array([0, 0])), expected, rtol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(12)
        raw = rng.uniform(0.01, 1.0, size=(500, 10))
        preds = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 10, size=500)
        np.testing.assert_allclose(
            metrics.log_loss(preds, labels), _naive_log_loss(preds, labels), rtol=1e-12
        )

    def test_nonnegative_and_zero_iff_perfect(self):
        rng = np.random.default_rng(13)
        raw = rng.uniform(0.01, 1.0, size=(50, 10))
        preds = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 10, size=50)
        assert metrics.log_loss(preds, labels) > 0.0


class TestInputChecks:
    """accuracy and log_loss refuse the same inputs with the same messages."""

    @pytest.mark.parametrize("label", [10, -1, 2**40])
    def test_label_outside_the_classes_names_its_example(self, label):
        # log_loss read -1 as class 9, and 10 escaped it as an IndexError
        labels = np.array([0, label, 2])
        problem = re.escape(f"example 1: label {label} outside the classes [0, 10)")
        for metric in (metrics.accuracy, metrics.log_loss):
            with pytest.raises(TinyAscError, match=f"^{problem}$"):
                metric(np.full((3, 10), 0.1), labels)

    def test_counts_checked_alike(self):
        # log_loss scored the first 2 of 3 predictions against 2 labels
        for metric in (metrics.accuracy, metrics.log_loss):
            with pytest.raises(TinyAscError, match="^3 predictions vs 2 labels$"):
                metric(np.full((3, 10), 0.1), np.array([0, 1]))
            with pytest.raises(TinyAscError, match="^empty dataset$"):
                metric(np.zeros((0, 10)), np.array([], dtype=np.int64))


@pytest.fixture(scope="module")
def model():
    return zoo.init_weights(zoo.build_conv_sep(4, 4, 3, input_shape=(16, 12, 1)), seed=0)


@pytest.fixture(scope="module")
def examples():
    return data.synth_examples(20, seed=1, n_mels=16, n_frames=12)


class TestEvaluate:
    def test_empty_dataset_rejected(self, model):
        with pytest.raises(TinyAscError, match="empty"):
            metrics.evaluate(model, [])

    @pytest.mark.parametrize("label", [10, -1, 2**40])
    def test_label_outside_the_classes_names_its_example(self, model, examples, label):
        # 10 escaped as an IndexError, and -1 was counted as class 9
        bad = list(examples)
        bad[7] = (bad[7][0], label)
        problem = re.escape(f"example 7: label {label} outside the classes [0, 10)")
        with pytest.raises(TinyAscError, match=f"^{problem}$"):
            metrics.evaluate(model, bad)

    def test_deterministic(self, model, examples):
        a = metrics.evaluate(model, examples)
        b = metrics.evaluate(model, examples)
        assert a.accuracy == b.accuracy
        assert a.log_loss == b.log_loss
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_confusion_consistency(self, model, examples):
        result = metrics.evaluate(model, examples)
        assert result.n_examples == 20
        assert result.confusion.sum() == 20
        labels = np.array([l for _, l in examples])
        np.testing.assert_array_equal(result.confusion.sum(axis=1), np.bincount(labels, minlength=10))
        np.testing.assert_allclose(np.trace(result.confusion) / 20, result.accuracy, rtol=1e-12)

    def test_report_formats(self, model, examples):
        result = metrics.evaluate(model, examples)
        text = metrics.format_report(result, class_names=data.SCENE_LABELS)
        assert "accuracy" in text and "confusion" in text
        csv = metrics.confusion_to_csv(result)
        assert len(csv.strip().split("\n")) == 10

    def test_report_refuses_fewer_names_than_classes(self):
        # a 12-class result once raised IndexError at the eleventh row's name
        result = metrics.EvalResult(0.5, 1.0, 3, np.zeros((12, 12), dtype=np.int64))
        with pytest.raises(TinyAscError, match="^10 class names for a result of 12 classes$"):
            metrics.format_report(result, class_names=data.SCENE_LABELS)
        assert metrics.format_report(result).count("\n") == 5 + 12
