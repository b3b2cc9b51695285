"""Counter formulas, brute-force oracle equivalence, budgets, reconciliation."""

import numpy as np
import pytest

from tinyasc import audit, zoo
from tinyasc.errors import ConfigError
from tinyasc.zoo import ModelGraph

FILTER_GRID = [(40, 40), (48, 48), (32, 64), (64, 64)]


def _graph(layers, input_shape, n_classes=10):
    model = ModelGraph(
        layers=layers,
        arch_tag="conv_sep",
        filters=(1, 1),
        kernel_size=3,
        input_shape=input_shape,
        n_classes=n_classes,
    )
    zoo.infer_shapes(model)
    return model


def _dense_graph(n_in=40, n_out=10):
    layers = [
        zoo._simple("global_avg_pool", "gap"),
        zoo._dense("fc", n_in, n_out),
        zoo._simple("softmax", "softmax"),
    ]
    return _graph(layers, (4, 4, n_in), n_classes=n_out)


class TestCountParams:
    def test_dense_40_to_10(self):
        model = _dense_graph()
        rows, total = audit.count_params(model)
        assert dict(rows)["fc"] == 410

    def test_separable_3x3_40_40(self):
        layers = [
            zoo._depthwise("dw", 3, 40, use_bias=False),
            zoo._pointwise("pw", 40, 40, use_bias=True),
            zoo._simple("global_avg_pool", "gap"),
            zoo._dense("fc", 40, 10),
            zoo._simple("softmax", "softmax"),
        ]
        model = _graph(layers, (8, 8, 40))
        rows, _ = audit.count_params(model)
        by_name = dict(rows)
        assert by_name["dw"] + by_name["pw"] == 2000  # 360 + 1600 + 40

    def test_bn_convention_2_vs_4(self):
        layers = [
            zoo._conv("c", 3, 1, 8, use_bias=True),
            zoo._batch_norm("bn", 8),
            zoo._simple("global_avg_pool", "gap"),
            zoo._dense("fc", 8, 10),
            zoo._simple("softmax", "sm"),
        ]
        model = _graph(layers, (8, 8, 1))
        _, total4 = audit.count_params(model, audit.Convention(bn_params_per_channel=4))
        _, total2 = audit.count_params(model, audit.Convention(bn_params_per_channel=2))
        assert total4 - total2 == 16

    @pytest.mark.parametrize("value", [0, 3])
    def test_convention_refuses_other_bn_params_as_a_config_error(self, value):
        with pytest.raises(ConfigError, match=f"must be 2 or 4, got {value}") as exc:
            audit.Convention(bn_params_per_channel=value)
        assert isinstance(exc.value, ValueError)

    def test_published_reconciliation_target_present(self):
        # the published conv_sep 48-48 figure is a reconciliation target
        assert audit.PUBLISHED_TOTALS[("conv_sep", 48, 48)][0] == 28_320


class TestCountMacs:
    def test_conv_3x3_1_to_40_on_64x51(self):
        layers = [
            zoo._conv("c", 3, 1, 40, use_bias=True),
            zoo._simple("global_avg_pool", "gap"),
            zoo._dense("fc", 40, 10),
            zoo._simple("softmax", "sm"),
        ]
        model = _graph(layers, (64, 51, 1))
        rows, _ = audit.count_macs(model)
        assert dict(rows)["c"] == 1_175_040  # 9 * 1 * 40 * 64 * 51

    def test_dense_40_to_10(self):
        rows, _ = audit.count_macs(_dense_graph())
        assert dict(rows)["fc"] == 400

    def test_bias_macs_convention(self):
        rows, _ = audit.count_macs(_dense_graph(), audit.Convention(count_bias_macs=True))
        assert dict(rows)["fc"] == 410

    def test_bn_macs_convention(self):
        layers = [
            zoo._conv("c", 3, 1, 8, use_bias=True),
            zoo._batch_norm("bn", 8),
            zoo._simple("global_avg_pool", "gap"),
            zoo._dense("fc", 8, 10),
            zoo._simple("softmax", "sm"),
        ]
        model = _graph(layers, (8, 8, 1))
        rows_folded, _ = audit.count_macs(model)
        rows_counted, _ = audit.count_macs(model, audit.Convention(count_bn_macs=True))
        assert dict(rows_folded)["bn"] == 0
        assert dict(rows_counted)["bn"] == 2 * 8 * 64

    def test_macs_scale_linearly_with_spatial_area(self):
        per_area = []
        for h, w in ((16, 12), (32, 24), (64, 48)):
            layers = [
                zoo._conv("c", 3, 2, 6, use_bias=True),
                zoo._simple("global_avg_pool", "gap"),
                zoo._dense("fc", 6, 10),
                zoo._simple("softmax", "sm"),
            ]
            model = _graph(layers, (h, w, 2))
            rows, _ = audit.count_macs(model)
            per_area.append(dict(rows)["c"] / (h * w))
        assert per_area[0] == per_area[1] == per_area[2]


def _random_small_graph(rng):
    """Random but valid stack of the supported layer kinds."""
    h = int(rng.integers(6, 13))
    w = int(rng.integers(6, 13))
    c = int(rng.integers(1, 4))
    layers = []
    channels = c
    n_blocks = int(rng.integers(1, 4))
    for b in range(n_blocks):
        kind = rng.choice(["conv", "separable", "mixer"])
        f = int(rng.integers(2, 9))
        use_bias = bool(rng.integers(0, 2))
        k = int(rng.choice([1, 3, 5]))
        if kind == "conv":
            layers.append(zoo._conv(f"c{b}", k, channels, f, use_bias))
            channels = f
        elif kind == "separable":
            layers.append(zoo._depthwise(f"dw{b}", k, channels, use_bias=False))
            layers.append(zoo._pointwise(f"pw{b}", channels, f, use_bias))
            channels = f
        else:
            layers.append(zoo._simple("residual_add_begin", f"skip{b}"))
            layers.append(zoo._depthwise(f"mdw{b}", k, channels, use_bias))
            layers.append(zoo._simple("residual_add_end", f"add{b}"))
            layers.append(zoo._pointwise(f"mpw{b}", channels, f, use_bias))
            channels = f
        if rng.integers(0, 2):
            layers.append(zoo._batch_norm(f"bn{b}", channels))
        layers.append(zoo._simple(rng.choice(["elu", "gelu"]), f"act{b}"))
        if rng.integers(0, 2):
            layers.append(zoo._simple("dropout", f"drop{b}", rate=0.3))
    layers += [
        zoo._simple("global_avg_pool", "gap"),
        zoo._dense("fc", channels, 10),
        zoo._simple("softmax", "softmax"),
    ]
    return _graph(layers, (h, w, c))


class TestBruteForceOracle:
    def test_matches_on_conv_sep_40_40(self):
        model = zoo.build_conv_sep(40, 40, 3)
        analytic = (audit.count_params(model)[1], audit.count_macs(model)[1])
        assert analytic == audit.brute_force_count(model)

    def test_matches_on_conv_mixer_40_40(self):
        model = zoo.build_conv_mixer(40, 40, 3, patch_size=1)
        analytic = (audit.count_params(model)[1], audit.count_macs(model)[1])
        assert analytic == audit.brute_force_count(model)

    def test_matches_on_single_dense(self):
        model = _dense_graph()
        analytic = (audit.count_params(model)[1], audit.count_macs(model)[1])
        assert analytic == audit.brute_force_count(model)

    def test_matches_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            model = _random_small_graph(rng)
            analytic = (audit.count_params(model)[1], audit.count_macs(model)[1])
            assert analytic == audit.brute_force_count(model)


class TestBudget:
    def test_baseline_totals_pass(self):
        params_ok, macs_ok = audit.check_budget(*audit.BASELINE_TOTALS)
        assert params_ok and macs_ok

    def test_widest_conv_sep_fails_on_macs(self):
        params_ok, macs_ok = audit.check_budget(*audit.PUBLISHED_TOTALS[("conv_sep", 64, 64)])
        assert params_ok
        assert not macs_ok

    def test_threshold_exact(self):
        assert audit.check_budget(128_000, 30_000_000) == (True, True)
        assert audit.check_budget(128_001, 30_000_000) == (False, True)
        assert audit.check_budget(128_000, 30_000_001) == (True, False)

    @pytest.mark.parametrize("budgets, name", [((-1, 30_000_000), "max_params"), ((128_000, -5), "max_macs")])
    def test_negative_budget_raises_naming_it(self, budgets, name):
        # a negative budget once read as a model over budget
        with pytest.raises(ConfigError, match=f"^{name} must be >= 0, got {min(budgets)}$"):
            audit.check_budget(0, 0, *budgets)
        with pytest.raises(ConfigError, match=name):
            audit.audit_model(zoo.build_conv_sep(8, 8, 3), max_params=budgets[0], max_macs=budgets[1])

    def test_zero_budget_is_a_budget(self):
        assert audit.check_budget(0, 0, 0, 0) == (True, True)
        assert audit.check_budget(1, 1, 0, 0) == (False, False)

    def test_zero_layer_model_full_headroom(self):
        model = ModelGraph(layers=[], arch_tag="conv_sep", filters=(1, 1), kernel_size=3,
                           input_shape=(1, 1, 1), n_classes=1)
        # bypass shape inference: an empty graph trivially has no rows
        report = audit.audit_model(model)
        assert report.ok
        text = audit.format_report(report)
        assert f"params 0 / {audit.MAX_PARAMS_BUDGET} (pass, headroom {audit.MAX_PARAMS_BUDGET})" in text
        assert f"macs   0 / {audit.MAX_MACS_BUDGET} (pass, headroom {audit.MAX_MACS_BUDGET})" in text

    def test_report_totals_equal_row_sums(self):
        report = audit.audit_model(zoo.build_conv_sep(48, 48, 3))
        assert report.params_total == sum(r.params for r in report.rows)
        assert report.macs_total == sum(r.macs for r in report.rows)
        assert report.ok


class TestMonotonicity:
    @pytest.mark.parametrize("arch", ["conv_sep", "conv_mixer"])
    def test_counts_monotone_in_filters(self, arch):
        build = zoo.build_conv_sep if arch == "conv_sep" else zoo.build_conv_mixer
        base_p = audit.count_params(build(16, 16, 3))[1]
        base_m = audit.count_macs(build(16, 16, 3))[1]
        for f1, f2 in ((17, 16), (16, 17), (32, 16), (16, 32)):
            p = audit.count_params(build(f1, f2, 3))[1]
            m = audit.count_macs(build(f1, f2, 3))[1]
            assert p >= base_p and m >= base_m


class TestReconciliation:
    def test_degenerate_sweep_equals_direct_count(self):
        record = audit.reconcile("conv_sep", (48, 48), kernels=(3,))
        model = zoo.build_conv_sep(48, 48, 3)
        # with one kernel the sweep can still flip bias/norm conventions,
        # but the best-params candidate with default conventions must equal
        # the direct count when it wins
        candidates = audit.sweep_conventions("conv_sep", (48, 48), kernels=(3,))
        defaults = [
            c for c in candidates
            if c.use_bias and c.convention.bn_params_per_channel == 4
            and not c.convention.count_bn_macs and not c.convention.count_bias_macs
        ]
        assert len(defaults) == 1
        assert defaults[0].params == audit.count_params(model)[1]
        assert defaults[0].macs == audit.count_macs(model)[1]
        assert record.published_params == 28_320

    @pytest.mark.parametrize("arch,f1,f2", [k for k in audit.PUBLISHED_TOTALS])
    def test_all_rows_within_15_percent(self, arch, f1, f2):
        record = audit.reconcile(arch, (f1, f2))
        assert record.params_deviation_pct <= 15.0, (
            f"{arch} {f1}-{f2}: {record.params_deviation_pct:.2f}% "
            f"({record.best_params.describe()})"
        )

    def test_reconcile_all_covers_8_rows(self):
        records = audit.reconcile_all()
        assert len(records) == 8
        csv = audit.reconciliation_to_csv(records)
        assert len(csv.strip().split("\n")) == 9


class TestFormatting:
    def test_report_and_footer(self):
        report = audit.audit_model(zoo.build_conv_sep(48, 48, 3))
        text = audit.format_report(report)
        assert "classifier" in text and "pass" in text
        footer = audit.report_footer(report)
        assert "params_total=28090" in footer
        assert "verdict=pass" in footer
        csv = audit.report_to_csv(report)
        assert csv.startswith("layer,kind,out_shape,params,macs")
