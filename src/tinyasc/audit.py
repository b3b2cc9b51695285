"""Parameter and MAC accounting with budget enforcement.

A MAC is one multiply paired with one accumulate. By default bias
additions are excluded and inference batch norm is treated as folded
(zero MACs); both are switchable, as is counting 2 or 4 batch-norm
parameters per channel (gamma/beta only, or moving statistics too). The
default convention (4 per channel, bias adds excluded, norms folded)
mirrors exactly what the brute-force oracle sees when it enumerates the
graph's weight tensors and the naive convolution loops.

Published totals for the challenge configurations are reconciliation
targets, not assertions: the submissions' kernel sizes and counting tool
are not public, so the sweep reports the closest convention and the
residual deviation instead of demanding an exact match.
"""

import itertools
from dataclasses import dataclass

from . import reference
from .errors import ConfigError, TinyAscError
from .zoo import build, layer_op

MAX_PARAMS_BUDGET = 128_000
MAX_MACS_BUDGET = 30_000_000

# (params, macs) figures published for the challenge; keyed by
# (arch, f1, f2). The baseline row ships only as totals.
PUBLISHED_TOTALS = {
    ("conv_sep", 40, 40): (20_088, 20_306_320),
    ("conv_sep", 48, 48): (28_320, 28_570_080),
    ("conv_sep", 32, 64): (26_544, 23_138_944),
    ("conv_sep", 64, 64): (49_008, 49_300_096),
    ("conv_mixer", 40, 40): (10_515, 17_979_280),
    ("conv_mixer", 48, 48): (14_139, 24_671_712),
    ("conv_mixer", 32, 64): (12_683, 15_895_168),
    ("conv_mixer", 64, 64): (22_923, 41_153_152),
}
BASELINE_TOTALS = (46_512, 29_234_920)

SWEEP_KERNELS = (3, 5, 7, 9, 11)


@dataclass
class Convention:
    bn_params_per_channel: int = 4  # 2 = gamma/beta only
    count_bn_macs: bool = False  # 2*C*H*W per norm at inference when True
    count_bias_macs: bool = False

    def __post_init__(self):
        if self.bn_params_per_channel not in (2, 4):
            raise ConfigError(f"bn_params_per_channel must be 2 or 4, got {self.bn_params_per_channel!r}")


@dataclass
class LayerCount:
    name: str
    kind: str
    output_shape: tuple
    params: int
    macs: int


@dataclass
class ComplexityReport:
    rows: list
    params_total: int
    macs_total: int
    params_budget: int
    macs_budget: int
    params_pass: bool
    macs_pass: bool

    @property
    def ok(self):
        return self.params_pass and self.macs_pass


def _layer_counts(model, convention=None):
    """The one analytic pass: a LayerCount for each layer of ``model``."""
    convention = convention or Convention()
    rows = []
    for i, layer in enumerate(model.layers):
        op = layer_op(layer, i)
        params, macs = op.params(layer, convention), op.macs(layer, convention)
        rows.append(LayerCount(layer.name, layer.kind, layer.output_shape, params, macs))
    return rows


def count_params(model, convention=None):
    """Analytic per-layer parameter counts; returns (rows, total)."""
    rows = [(r.name, r.params) for r in _layer_counts(model, convention)]
    return rows, sum(p for _, p in rows)


def count_macs(model, convention=None):
    """Analytic per-layer MAC counts for one forward pass; returns (rows, total)."""
    rows = [(r.name, r.macs) for r in _layer_counts(model, convention)]
    return rows, sum(m for _, m in rows)


def brute_force_count(model):
    """Independent oracle: enumerate weights and naive-loop multiplies.

    Parameters come from literally summing every weight tensor's element
    count. MACs come from walking every output cell of each conv/dense
    layer the way the naive loop kernels do and adding the enumerated tap
    count, so no closed-form count is shared with the analytic path.
    """
    params = 0
    macs = 0
    for layer in model.layers:
        for name in layer.weight_names():
            params += int(layer.weights[name].size)
        out = layer.output_shape
        if layer.kind == "conv2d":
            kh, kw, cin, _ = layer.weights["w"].shape
            macs += reference.count_conv_multiplies(out[0], out[1], out[2], kh, kw, cin)
        elif layer.kind == "depthwise_conv2d":
            kh, kw, c = layer.weights["w"].shape
            macs += reference.count_depthwise_multiplies(out[0], out[1], c, kh, kw)
        elif layer.kind == "pointwise_conv2d":
            _, _, cin, _ = layer.weights["w"].shape
            macs += reference.count_conv_multiplies(out[0], out[1], out[2], 1, 1, cin)
        elif layer.kind == "dense":
            n, m = layer.weights["w"].shape
            macs += reference.count_dense_multiplies(n, m)
    return params, macs


def check_budget(params_total, macs_total, max_params=MAX_PARAMS_BUDGET, max_macs=MAX_MACS_BUDGET):
    """Threshold-exact verdicts: totals equal to the budget pass. A negative
    budget raises ConfigError naming it."""
    for name, budget in (("max_params", max_params), ("max_macs", max_macs)):
        if budget < 0:
            raise ConfigError(f"{name} must be >= 0, got {budget}")
    return params_total <= max_params, macs_total <= max_macs


def audit_model(model, convention=None, max_params=MAX_PARAMS_BUDGET, max_macs=MAX_MACS_BUDGET):
    """Assemble the full per-layer ComplexityReport for a model."""
    rows = _layer_counts(model, convention)
    totals = sum(r.params for r in rows), sum(r.macs for r in rows)
    return ComplexityReport(rows, *totals, max_params, max_macs, *check_budget(*totals, max_params, max_macs))


def _table(report):
    """The rows both report writers print: each layer's name, kind, output
    shape, params and MACs, then the total row."""
    rows = [(r.name, r.kind, "x".join(map(str, r.output_shape)), r.params, r.macs) for r in report.rows]
    return [*rows, ("total", "", "", report.params_total, report.macs_total)]


def format_report(report: ComplexityReport) -> str:
    rows = [("layer", "kind", "output", "params", "macs"), *_table(report)]
    lines = ["{:<14} {:<20} {:<14} {:>10} {:>12}".format(*row) for row in rows]
    lines.append("")
    for name, total, budget, passed in (
        ("params", report.params_total, report.params_budget, report.params_pass),
        ("macs", report.macs_total, report.macs_budget, report.macs_pass),
    ):
        lines.append(f"{name:<6} {total} / {budget} ({'pass' if passed else 'FAIL'}, headroom {budget - total})")
    return "\n".join(lines) + "\n"


def report_to_csv(report: ComplexityReport) -> str:
    rows = [("layer", "kind", "out_shape", "params", "macs"), *_table(report)]
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def report_footer(report: ComplexityReport) -> str:
    """Machine-readable key=value verdict block."""
    items = [
        ("params_total", report.params_total),
        ("macs_total", report.macs_total),
        ("params_budget", report.params_budget),
        ("macs_budget", report.macs_budget),
        ("params_pass", str(report.params_pass).lower()),
        ("macs_pass", str(report.macs_pass).lower()),
        ("verdict", "pass" if report.ok else "fail"),
    ]
    return "\n".join(f"{k}={v}" for k, v in items) + "\n"


@dataclass
class SweepCandidate:
    kernel_size: int
    use_bias: bool
    patch_norm: bool
    convention: Convention
    params: int
    macs: int

    def describe(self):
        c = self.convention
        return (
            f"kernel={self.kernel_size} bias={'on' if self.use_bias else 'off'} "
            f"patch_norm={'on' if self.patch_norm else 'off'} "
            f"bn_params={c.bn_params_per_channel} "
            f"bn_macs={'counted' if c.count_bn_macs else 'folded'} "
            f"bias_macs={'counted' if c.count_bias_macs else 'excluded'}"
        )


@dataclass
class ReconciliationRecord:
    arch_tag: str
    filters: tuple
    published_params: int
    published_macs: int
    best_params: SweepCandidate
    best_macs: SweepCandidate

    @property
    def params_deviation_pct(self):
        return 100.0 * abs(self.best_params.params - self.published_params) / self.published_params

    @property
    def macs_deviation_pct(self):
        return 100.0 * abs(self.best_macs.macs - self.published_macs) / self.published_macs


def sweep_conventions(arch_tag, filters, kernels=SWEEP_KERNELS):
    """Enumerate counting conventions and graph variants for one configuration."""
    candidates = []
    patch_options = (True, False) if arch_tag == "conv_mixer" else (True,)
    for kernel, use_bias, patch_norm in itertools.product(kernels, (True, False), patch_options):
        model = build(arch_tag, *filters, kernel_size=kernel, use_bias=use_bias, patch_norm=patch_norm)
        for values in itertools.product((4, 2), (False, True), (False, True)):
            convention = Convention(*values)
            report = audit_model(model, convention)
            candidates.append(SweepCandidate(kernel, use_bias, patch_norm, convention, report.params_total, report.macs_total))
    return candidates


def reconcile(arch_tag, filters, kernels=SWEEP_KERNELS) -> ReconciliationRecord:
    """Best-matching convention against the published totals for one row."""
    key = (arch_tag, filters[0], filters[1])
    if key not in PUBLISHED_TOTALS:
        raise TinyAscError(f"no published totals for {key}")
    pub_params, pub_macs = PUBLISHED_TOTALS[key]
    candidates = sweep_conventions(arch_tag, filters, kernels)
    best_params = min(candidates, key=lambda c: (abs(c.params - pub_params), c.kernel_size))
    best_macs = min(candidates, key=lambda c: (abs(c.macs - pub_macs), c.kernel_size))
    return ReconciliationRecord(arch_tag, tuple(filters), pub_params, pub_macs, best_params, best_macs)


def reconcile_all(kernels=SWEEP_KERNELS):
    """Reconciliation records for every published configuration."""
    return [reconcile(arch, (f1, f2), kernels) for arch, f1, f2 in PUBLISHED_TOTALS]


def format_reconciliation(records) -> str:
    lines = [
        f"{'arch':<11} {'filters':<8} {'pub params':>10} {'best':>8} {'dev%':>6}  "
        f"{'pub macs':>11} {'best':>11} {'dev%':>6}  best-params convention"
    ]
    for r in records:
        lines.append(
            f"{r.arch_tag:<11} {r.filters[0]}-{r.filters[1]:<6} "
            f"{r.published_params:>10} {r.best_params.params:>8} {r.params_deviation_pct:>6.2f}  "
            f"{r.published_macs:>11} {r.best_macs.macs:>11} {r.macs_deviation_pct:>6.2f}  "
            f"{r.best_params.describe()}"
        )
    return "\n".join(lines) + "\n"


def reconciliation_to_csv(records) -> str:
    lines = [
        "arch,f1,f2,published_params,best_params,params_deviation_pct,"
        "published_macs,best_macs,macs_deviation_pct,best_params_convention,best_macs_convention"
    ]
    for r in records:
        lines.append(
            f"{r.arch_tag},{r.filters[0]},{r.filters[1]},"
            f"{r.published_params},{r.best_params.params},{r.params_deviation_pct:.4f},"
            f"{r.published_macs},{r.best_macs.macs},{r.macs_deviation_pct:.4f},"
            f"{r.best_params.describe().replace(' ', ';')},"
            f"{r.best_macs.describe().replace(' ', ';')}"
        )
    return "\n".join(lines) + "\n"
