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

from dataclasses import dataclass, field

from . import reference
from .errors import TinyAscError
from .zoo import build_conv_mixer, build_conv_sep, layer_op

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
            raise ValueError("bn_params_per_channel must be 2 or 4")


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
    convention: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.params_pass and self.macs_pass

    @property
    def params_headroom(self):
        return self.params_budget - self.params_total

    @property
    def macs_headroom(self):
        return self.macs_budget - self.macs_total


def count_params(model, convention=None):
    """Analytic per-layer parameter counts; returns (rows, total)."""
    convention = convention or Convention()
    rows = [
        (layer.name, layer_op(layer, i).params(layer, convention))
        for i, layer in enumerate(model.layers)
    ]
    return rows, sum(p for _, p in rows)


def count_macs(model, convention=None):
    """Analytic per-layer MAC counts for one forward pass; returns (rows, total)."""
    convention = convention or Convention()
    rows = [
        (layer.name, layer_op(layer, i).macs(layer, convention))
        for i, layer in enumerate(model.layers)
    ]
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
    """Threshold-exact verdicts: totals equal to the budget pass."""
    return params_total <= max_params, macs_total <= max_macs


def audit_model(model, convention=None, max_params=MAX_PARAMS_BUDGET, max_macs=MAX_MACS_BUDGET):
    """Assemble the full per-layer ComplexityReport for a model."""
    convention = convention or Convention()
    param_rows, params_total = count_params(model, convention)
    mac_rows, macs_total = count_macs(model, convention)
    rows = [
        LayerCount(layer.name, layer.kind, layer.output_shape, params, macs)
        for layer, (_, params), (_, macs) in zip(model.layers, param_rows, mac_rows)
    ]
    params_pass, macs_pass = check_budget(params_total, macs_total, max_params, max_macs)
    return ComplexityReport(
        rows=rows,
        params_total=params_total,
        macs_total=macs_total,
        params_budget=max_params,
        macs_budget=max_macs,
        params_pass=params_pass,
        macs_pass=macs_pass,
        convention={
            "kernel_size": model.kernel_size,
            "use_bias": model.use_bias,
            "bn_params_per_channel": convention.bn_params_per_channel,
            "count_bn_macs": convention.count_bn_macs,
            "count_bias_macs": convention.count_bias_macs,
            "mac_definition": "multiply+accumulate pairs",
        },
    )


def format_report(report: ComplexityReport) -> str:
    lines = [f"{'layer':<14} {'kind':<20} {'output':<14} {'params':>10} {'macs':>12}"]
    for r in report.rows:
        shape = "x".join(str(d) for d in r.output_shape)
        lines.append(f"{r.name:<14} {r.kind:<20} {shape:<14} {r.params:>10} {r.macs:>12}")
    lines.append(f"{'total':<14} {'':<20} {'':<14} {report.params_total:>10} {report.macs_total:>12}")
    lines.append("")
    lines.append(
        f"params {report.params_total} / {report.params_budget} "
        f"({'pass' if report.params_pass else 'FAIL'}, headroom {report.params_headroom})"
    )
    lines.append(
        f"macs   {report.macs_total} / {report.macs_budget} "
        f"({'pass' if report.macs_pass else 'FAIL'}, headroom {report.macs_headroom})"
    )
    return "\n".join(lines) + "\n"


def report_to_csv(report: ComplexityReport) -> str:
    lines = ["layer,kind,out_shape,params,macs"]
    for r in report.rows:
        shape = "x".join(str(d) for d in r.output_shape)
        lines.append(f"{r.name},{r.kind},{shape},{r.params},{r.macs}")
    lines.append(f"total,,,{report.params_total},{report.macs_total}")
    return "\n".join(lines) + "\n"


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
    bn_params_per_channel: int
    count_bn_macs: bool
    count_bias_macs: bool
    params: int
    macs: int

    def describe(self):
        return (
            f"kernel={self.kernel_size} bias={'on' if self.use_bias else 'off'} "
            f"patch_norm={'on' if self.patch_norm else 'off'} "
            f"bn_params={self.bn_params_per_channel} "
            f"bn_macs={'counted' if self.count_bn_macs else 'folded'} "
            f"bias_macs={'counted' if self.count_bias_macs else 'excluded'}"
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
    f1, f2 = filters
    candidates = []
    for kernel in kernels:
        for use_bias in (True, False):
            patch_options = (True, False) if arch_tag == "conv_mixer" else (True,)
            for patch_norm in patch_options:
                if arch_tag == "conv_sep":
                    model = build_conv_sep(f1, f2, kernel_size=kernel, use_bias=use_bias)
                else:
                    model = build_conv_mixer(
                        f1, f2, kernel_size=kernel, use_bias=use_bias, patch_norm=patch_norm
                    )
                for bn_pc in (4, 2):
                    for bn_macs in (False, True):
                        for bias_macs in (False, True):
                            conv = Convention(bn_pc, bn_macs, bias_macs)
                            _, params = count_params(model, conv)
                            _, macs = count_macs(model, conv)
                            candidates.append(
                                SweepCandidate(
                                    kernel, use_bias, patch_norm, bn_pc, bn_macs, bias_macs,
                                    params, macs,
                                )
                            )
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
    return ReconciliationRecord(
        arch_tag=arch_tag,
        filters=tuple(filters),
        published_params=pub_params,
        published_macs=pub_macs,
        best_params=best_params,
        best_macs=best_macs,
    )


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
