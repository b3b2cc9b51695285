"""Batch command-line entry point.

Subcommands: features, train, eval, audit, quantize, reconcile. Exit
status 0 on success, 1 on runtime failure, 2 on bad flags, 3 when a
complexity audit exceeds a budget. A key=value config file can pre-seed
any flag (flags given on the command line win). Every subcommand is
reproducible under a fixed seed.
"""

import argparse
import dataclasses
import errno
import io
import os
import sys

import numpy as np

from . import audit as audit_mod
from . import data, metrics, modelfile, quantize, trainer, zoo
from .errors import TinyAscError
from .frontend import FrontendConfig, log_mel, spectrogram_to_csv

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_filters(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"filters must be 'f1,f2', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_seed(text):
    """A seed for numpy's generators, which take no negative one."""
    try:
        seed = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _read_config_file(path):
    values = {}
    for line_num, line in enumerate(io.StringIO(data.read_text(path), newline=None), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise TinyAscError(f"{path} line {line_num}: expected key=value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


# every flag that names a file a subcommand writes
OUTPUT_FLAGS = ("out", "history", "report", "csv", "confusion")


def _check_outputs(args):
    """Raise the OSError that writing would, before any work is done, for an
    output path whose directory is missing or that is a directory."""
    for flag in OUTPUT_FLAGS:
        path = getattr(args, flag, None)
        if not path:
            continue
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _write(path, text):
    """Write ``text`` to ``path`` when its flag was given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_data_flags(p):
    p.add_argument("--manifest", help="tab-separated dataset manifest")
    p.add_argument("--audio-root", help="directory the manifest paths are relative to")
    p.add_argument("--synthetic", type=int, help="use N synthetic examples instead of audio")


def _add_model_flags(p):
    p.add_argument("--arch", choices=tuple(zoo.ARCHS), default="conv_sep")
    p.add_argument("--filters", type=_parse_filters, default=(48, 48), help="f1,f2")
    p.add_argument("--kernel", type=int, default=3)
    p.add_argument("--patch", type=int, default=1, help="patch size (conv_mixer only)")


def build_parser():
    parser = argparse.ArgumentParser(prog="tinyasc", description=__doc__)
    parser.add_argument("--config", help="key=value file providing flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    parser._subcommands = sub  # kept so config defaults can reach every subparser

    p = sub.add_parser("features", help="WAV to log-Mel spectrogram CSV")
    p.add_argument("--wav", required=True)
    p.add_argument("--out", help="output CSV (stdout when omitted)")
    for f in dataclasses.fields(FrontendConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=f.type, default=f.default)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_model_flags(p)
    _add_data_flags(p)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--out", help="checkpoint path")
    p.add_argument("--history", help="per-epoch CSV path")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    _add_data_flags(p)
    p.add_argument("--seed", type=_parse_seed, default=0, help="seed for --synthetic data")
    p.add_argument("--report", help="write the text report here too")
    p.add_argument("--csv", help="metrics CSV path")
    p.add_argument("--confusion", help="confusion matrix CSV path")

    p = sub.add_parser("audit", help="parameter/MAC audit against the budgets")
    _add_model_flags(p)
    p.add_argument("--no-bias", action="store_true", help="build convolutions without biases")
    p.add_argument("--bn-params", type=int, choices=(2, 4), default=4)
    p.add_argument("--count-bn-macs", action="store_true")
    p.add_argument("--count-bias-macs", action="store_true")
    p.add_argument("--max-params", type=int, default=audit_mod.MAX_PARAMS_BUDGET)
    p.add_argument("--max-macs", type=int, default=audit_mod.MAX_MACS_BUDGET)
    p.add_argument("--csv", help="per-layer CSV path")

    p = sub.add_parser("quantize", help="post-training INT8 quantization")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="quantized model path")
    _add_data_flags(p)
    p.add_argument("--seed", type=_parse_seed, default=0, help="seed for --synthetic calibration data")
    p.add_argument("--report", help="agreement and per-layer error report path")

    p = sub.add_parser("reconcile", help="convention sweep against published totals")
    p.add_argument("--out", help="reconciliation record CSV path")

    return parser


def _load_examples(args):
    """Resolve the data flags into (Spectrogram, label) pairs."""
    if args.synthetic is not None:
        if args.synthetic < 1:
            raise TinyAscError("--synthetic must be >= 1")
        return data.synth_examples(args.synthetic, seed=getattr(args, "seed", 0))
    if not args.manifest or not args.audio_root:
        raise TinyAscError("provide either --synthetic N or both --manifest and --audio-root")
    manifest = data.parse_manifest(args.manifest)
    clips = data.load_clips(manifest, args.audio_root)
    cfg = FrontendConfig()
    return [(log_mel(c.waveform, cfg), c.label) for c in clips]


def _build_model(args):
    return zoo.build(
        args.arch,
        *args.filters,
        kernel_size=args.kernel,
        patch_size=args.patch,
        use_bias=not getattr(args, "no_bias", False),  # only audit has --no-bias
    )


def _cmd_features(args):
    cfg = FrontendConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(FrontendConfig)})
    wav = data.read_wav(args.wav)
    spec = log_mel(wav, cfg)
    csv = spectrogram_to_csv(spec)
    if args.out:
        _write(args.out, csv)
        print(
            f"wrote {spec.n_mels}x{spec.n_frames} spectrogram to {args.out} "
            f"(mel=slaney fmin={cfg.fmin} fmax={cfg.fmax} fft={cfg.fft_size} log=natural)"
        )
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def _cmd_train(args):
    cfg = trainer.TrainingConfig(
        max_epochs=args.epochs,
        batch_size=args.batch_size,
        adam=trainer.AdamConfig(lr=args.lr),
        seed=args.seed,
    )
    examples = _load_examples(args)
    model = _build_model(args)
    if args.out:
        modelfile.header(model, zoo.ARCHS)  # a field the checkpoint cannot hold fails before training
    model, run = trainer.train(zoo.init_weights(model, seed=args.seed), examples, cfg)
    last = run.epochs[-1]
    print(
        f"trained {args.arch} {args.filters[0]}-{args.filters[1]} for {len(run.epochs)} epochs "
        f"({run.stop_reason}); best epoch {run.best_epoch}, "
        f"final train_acc={last.train_acc:.4f} val_acc={last.val_acc:.4f}"
    )
    if args.out:
        zoo.save_model(model, args.out)
        print(f"checkpoint: {args.out}")
    if args.history:
        _write(args.history, run.to_csv())
        print(f"history: {args.history}")
    return EXIT_OK


def _cmd_eval(args):
    model = zoo.load_model(args.checkpoint)
    examples = _load_examples(args)
    result = metrics.evaluate(model, examples)
    report = metrics.format_report(result, class_names=data.SCENE_LABELS)
    print(report, end="")
    _write(args.report, report)
    _write(args.csv, metrics.result_to_csv(result))
    _write(args.confusion, metrics.confusion_to_csv(result))
    return EXIT_OK


def _cmd_audit(args):
    model = _build_model(args)
    convention = audit_mod.Convention(
        bn_params_per_channel=args.bn_params,
        count_bn_macs=args.count_bn_macs,
        count_bias_macs=args.count_bias_macs,
    )
    report = audit_mod.audit_model(model, convention, max_params=args.max_params, max_macs=args.max_macs)
    print(audit_mod.format_report(report), end="")
    print(audit_mod.report_footer(report), end="")
    _write(args.csv, audit_mod.report_to_csv(report))
    return EXIT_OK if report.ok else EXIT_BUDGET


def _cmd_quantize(args):
    model = zoo.load_model(args.checkpoint)
    examples = _load_examples(args)
    calibration = [spec for spec, _ in examples]
    qm = quantize.quantize_model(model, calibration)
    quantize.save_quantized(qm, args.out)
    report, rows = quantize.quantization_report(model, qm, calibration)
    text = (
        f"n_inputs={report['n_inputs']}\n"
        f"top1_agreement={report['top1_agreement']:.4f}\n"
        f"max_logit_diff={report['max_logit_diff']:.6g}\n"
    )
    for row in rows:
        text += (
            f"layer={row['name']} kind={row['kind']} "
            f"sqnr_db={row['sqnr_db']:.2f} max_abs_diff={row['max_abs_diff']:.6g}\n"
        )
    print(f"quantized model: {args.out}")
    print(text, end="")
    _write(args.report, text)
    return EXIT_OK


def _cmd_reconcile(args):
    records = audit_mod.reconcile_all()
    print(audit_mod.format_reconciliation(records), end="")
    _write(args.out, audit_mod.reconciliation_to_csv(records))
    return EXIT_OK


_COMMANDS = {
    "features": _cmd_features,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "audit": _cmd_audit,
    "quantize": _cmd_quantize,
    "reconcile": _cmd_reconcile,
}


def _config_defaults(parser, path):
    """Set the config file's values as defaults of each subparser that has the key.

    Strings go through each flag's type converter at parse time; a switch
    takes ``true`` or ``false``.
    """
    values = _read_config_file(path)
    subparsers = parser._subcommands.choices.values()
    actions = {a.dest: a for p in subparsers for a in p._actions if not isinstance(a, argparse._HelpAction)}
    unknown = sorted(set(values) - set(actions))
    if unknown:
        raise TinyAscError(f"unknown config key {unknown[0]!r}")
    for key, value in values.items():
        if actions[key].nargs == 0:
            if value not in ("true", "false"):
                raise TinyAscError(f"config key {key!r} is a switch: true or false, got {value!r}")
            values[key] = value == "true"
    for p in subparsers:
        p.set_defaults(**{k: v for k, v in values.items() if k in {a.dest for a in p._actions}})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    # a failure is one error: line, so numpy's floating-point warnings on the
    # way to it (a diverging run overflows before its loss reads non-finite) are off
    try:
        with np.errstate(all="ignore"):
            if args.config is not None:
                # a config file provides defaults; explicit flags still win
                _config_defaults(parser, args.config)
                args = parser.parse_args(argv)
            _check_outputs(args)
            return _COMMANDS[args.command](args)
    except (TinyAscError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation it refused; a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
