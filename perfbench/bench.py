"""The benchmark's phases, inputs and result, for one workload.

Load is one closed-loop client: each request is sent only after the
previous one completed, the way a device classifies one clip at a time.
A run times fresh-process set-ups, then cycles through four interleaved
phases in one process (request, int8, eval, quantize), then trains, and
last checks every output it kept against the oracles, outside the timed
regions.
"""

import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import wave

import numpy as np

import oracles
import spans
from tinyasc import audit, data, frontend, metrics, quantize, trainer, zoo

SAMPLE_RATE = 44100
FILTERS = (48, 48)
KERNEL = 3
# Request cost can depend on the clip (GELU's cost follows the share of
# negative inputs), so the pool is large enough that its mix barely moves
# from one seed to the next. Each cycle sends every WAV once on each path.
POOL_WAVS = 64
MIN_CYCLES = 2  # 128 requests per path, so each p90 has more than 10 samples beyond it
EVAL_CLIPS = 64  # one metrics.evaluate call, one batch of 64
CALIBRATION_CLIPS = 16
TRAIN_EXAMPLES = 71  # the 90/10 split leaves 64 to train on: one batch of 64 per epoch
SETUP_SPAWNS = 5
MODEL_SEED = 2022
ORACLE_SAMPLES = 4
GRADIENT_ENTRIES = 4

# The machine's speed drifts over seconds, so the request, int8, eval and
# quantize phases run interleaved, in cycles of one round each, and each
# metric samples the whole run rather than one stretch of it. The number of
# cycles comes from --seconds and a workload's nominal ``cycle_s`` on the
# reference machine, never from a clock reading, so every run does the same
# work and attempts the same operations. Training then makes ``train_calls``
# calls of one epoch each, far below the early-stop patience of 30.
CYCLE_SHARE = 0.55
WORKLOADS = {
    "conv_sep": {
        "build": lambda: zoo.build_conv_sep(*FILTERS, kernel_size=KERNEL),
        "cycle_s": 7.0,
        "train_calls": 4,
    },
    "conv_mixer": {
        "build": lambda: zoo.build_conv_mixer(*FILTERS, kernel_size=KERNEL, patch_size=1),
        "cycle_s": 14.0,
        "train_calls": 1,
    },
}

END_TO_END = (
    ("setup_s", "s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p90", "ms"),
    ("int8_request_ms_p50", "ms"),
    ("int8_request_ms_p90", "ms"),
    ("eval_clips_per_s", "1/s"),
    ("quantize_clips_per_s", "1/s"),
    ("train_clips_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


# --- inputs ---------------------------------------------------------------


def tone_clip(rng):
    """One second of a loud tone, two quiet tones and white noise, as 16-bit codes.

    The loud tone is 0.5 full scale between 150 Hz and 8 kHz; the others
    stay below 0.06, so even where a narrow low band weighs a quiet tone
    eight times more than a wide high band weighs the loud one, the loud
    tone still wins by a factor of more than eight in power.
    """
    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    loud = float(np.exp(rng.uniform(np.log(150.0), np.log(8000.0))))
    x = 0.5 * np.sin(2 * np.pi * loud * t + rng.uniform(0, 2 * np.pi))
    for _ in range(2):
        f = np.exp(rng.uniform(np.log(100.0), np.log(10000.0)))
        x += rng.uniform(0.02, 0.06) * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    x += rng.normal(0.0, 0.01, SAMPLE_RATE)
    return np.clip(np.round(x * 32767), -32768, 32767).astype("<i2"), loud


def write_pcm16(path, codes):
    with wave.open(path, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(codes.tobytes())


def seeded_model(build, rng, calibration):
    """Glorot weights, random affine batch-norm parameters, moving statistics
    set from one train-mode pass over ``calibration`` (N, H, W, 1)."""
    model = zoo.init_weights(build(), int(rng.integers(2**31)))
    norms = [layer for layer in model.layers if layer.kind == "batch_norm"]
    for layer in norms:
        c = layer.weights["gamma"].shape[0]
        layer.weights["gamma"] = rng.uniform(0.7, 1.3, c).astype(np.float32)
        layer.weights["beta"] = rng.normal(0.0, 0.1, c).astype(np.float32)
        layer.config["momentum"] = 0.0
    zoo.run_graph(model, calibration.astype(np.float32), train=True, rng=np.random.default_rng(0))
    for layer in norms:
        layer.config["momentum"] = zoo.BN_MOMENTUM
    return model


class Inputs:
    """Everything a run feeds tinyasc, made before any timing.

    Clips, training and evaluation sets come from ``seed``. The checkpoint
    comes from MODEL_SEED alone: a deployed model stays fixed while its
    requests vary, and the weights set the share of negative GELU inputs,
    which decides much of GELU's cost.
    """

    def __init__(self, workload, seed, workdir):
        index = list(WORKLOADS).index(workload)
        model_rng = np.random.default_rng([MODEL_SEED, index])
        norm_clips = [tone_clip(model_rng)[0] / 32768.0 for _ in range(CALIBRATION_CLIPS)]
        norm_specs = [frontend.log_mel(frontend.Waveform(c, SAMPLE_RATE)).data for c in norm_clips]
        model = seeded_model(WORKLOADS[workload]["build"], model_rng, np.stack(norm_specs)[..., None])

        rng = np.random.default_rng([seed, index])
        self.wavs, self.codes, self.tones = [], [], []
        for i in range(POOL_WAVS):
            codes, tone = tone_clip(rng)
            path = os.path.join(workdir, f"clip{i:02d}.wav")
            write_pcm16(path, codes)
            self.wavs.append(path)
            self.codes.append(codes)
            self.tones.append(tone)
        self.calibration = [frontend.log_mel(data.read_wav(p)) for p in self.wavs[:CALIBRATION_CLIPS]]
        self.tasc = os.path.join(workdir, "model.tasc")
        self.tasq = os.path.join(workdir, "model.tasq")
        zoo.save_model(model, self.tasc)
        quantize.save_quantized(quantize.quantize_model(zoo.load_model(self.tasc), self.calibration), self.tasq)
        data_seed = int(rng.integers(2**31))
        self.eval_set = data.synth_examples(EVAL_CLIPS, data_seed)
        self.train_set = data.synth_examples(TRAIN_EXAMPLES, data_seed + 1)


# --- timing ----------------------------------------------------------------


class Run:
    """Counts operations and failures; marks each traced operation with a root span."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def span(self, phase):
        if self.tracer is None:
            return contextlib.nullcontext()
        self.tracer.phase = phase
        return self.tracer.span(f"bench.{phase}")

    def op(self, phase, fn, *args):
        """Run one operation; returns (seconds, result), result None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with self.span(phase):
                result = fn(*args)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            self.failed += 1
            self.errors.append(f"{phase}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start, None
        return time.perf_counter() - start, result


def float_request(model, path):
    spec = frontend.log_mel(data.read_wav(path))
    return spec, zoo.forward(model, spec)


def int8_request(qm, path):
    spec = frontend.log_mel(data.read_wav(path))
    return spec, quantize.quantized_forward(qm, spec)


def time_setups(run, inputs, repo, trace):
    """Fresh processes from start to exit; returns (seconds each, outputs)."""
    cmd = [sys.executable, os.path.join(repo, "perfbench", "setup_child.py")]
    cmd += [os.path.join(repo, "src"), inputs.tasc, inputs.tasq, inputs.wavs[0], str(int(trace))]
    times, outputs = [], []
    for _ in range(SETUP_SPAWNS):
        run.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            run.failed += 1
            run.errors.append(f"setup: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        times.append(elapsed)
        outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times, outputs


def quantize_round(model, calibration):
    qm = quantize.quantize_model(model, calibration)
    return qm, quantize.agreement_report(model, qm, calibration)


def timed_phases(run, inputs, workload, seconds, repo):
    """All timed work of one run; returns (end-to-end metrics, outputs to check, clips per phase)."""
    model = zoo.load_model(inputs.tasc)
    qm = quantize.load_quantized(inputs.tasq)
    setup_s, setup_out = time_setups(run, inputs, repo, run.tracer is not None)
    out = {"setup": setup_out, "request": [], "int8": [], "eval": [], "quantize": [], "train": []}
    busy = {"request": [], "int8": [], "eval": [], "quantize": [], "train": []}
    float_request(model, inputs.wavs[0])  # warm-up, untimed
    int8_request(qm, inputs.wavs[0])

    def record(phase, fn, *args):
        s, result = run.op(phase, fn, *args)
        if result is not None:
            busy[phase].append(s)
            out[phase].append(result)

    def cycle():
        for phase, handler, m in (("request", float_request, model), ("int8", int8_request, qm)):
            for i, path in enumerate(inputs.wavs):
                record(phase, lambda: (i, *handler(m, path)))
        record("eval", metrics.evaluate, model, inputs.eval_set)
        record("quantize", quantize_round, model, inputs.calibration)

    gc.collect()
    for _ in range(max(MIN_CYCLES, round(CYCLE_SHARE * seconds / WORKLOADS[workload]["cycle_s"]))):
        cycle()

    gc.collect()
    cfg = trainer.TrainingConfig(max_epochs=1, batch_size=64, seed=1)
    for _ in range(WORKLOADS[workload]["train_calls"]):
        record("train", trainer.train, zoo.load_model(inputs.tasc), inputs.train_set, cfg)
    n_train = TRAIN_EXAMPLES - max(1, round(cfg.val_fraction * TRAIN_EXAMPLES))
    per_call = {"eval": EVAL_CLIPS, "quantize": CALIBRATION_CLIPS, "train": n_train}
    clips = {phase: len(out[phase]) * per_call.get(phase, 1) for phase in busy}

    def ms(values, q):
        return 1e3 * float(np.percentile(values, q)) if values else math.nan

    def per_s(phase):
        """Median over the phase's calls of clips per second of the call."""
        return statistics.median([per_call[phase] / t for t in busy[phase]]) if busy[phase] else math.nan

    e2e = {
        "setup_s": statistics.median(setup_s) if setup_s else math.nan,
        "request_ms_p50": ms(busy["request"], 50),
        "request_ms_p90": ms(busy["request"], 90),
        "int8_request_ms_p50": ms(busy["int8"], 50),
        "int8_request_ms_p90": ms(busy["int8"], 90),
        "eval_clips_per_s": per_s("eval"),
        "quantize_clips_per_s": per_s("quantize"),
        "train_clips_per_s": per_s("train"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return e2e, out, clips, model, qm


# --- checks ----------------------------------------------------------------


def check_outputs(inputs, out, model, qm, seed):
    """Every oracle, outside the timed regions. Returns a list of failures."""
    failures = []

    def check(what, fn, *args):
        try:
            fn(*args)
        except oracles.OracleFailure as exc:
            failures.append(f"{what}: {exc}")

    rng = np.random.default_rng([seed, 99])
    for path, codes in zip(inputs.wavs, inputs.codes):
        check(f"read_wav {os.path.basename(path)}", oracles.check_wav_samples, data.read_wav(path).samples, codes)
    for phase in ("request", "int8"):
        for i, spec, _ in out[phase]:
            check(f"{phase} mel band, clip {i}", oracles.check_loudest_band, spec.data, inputs.tones[i])
    for j in rng.choice(len(out["request"]), size=min(ORACLE_SAMPLES, len(out["request"])), replace=False):
        i, spec, pred = out["request"][j]
        check(f"float logits, clip {i}", oracles.check_float_logits, model, spec.data, pred.logits)
    for j in rng.choice(len(out["int8"]), size=min(ORACLE_SAMPLES, len(out["int8"])), replace=False):
        i, spec, pred = out["int8"][j]
        check(f"int8 logits, clip {i}", oracles.check_int8_logits, qm, spec.data, pred.logits)
    for result in out["eval"]:
        check("evaluate", oracles.check_eval, result)
    for _, report in out["quantize"]:
        if report["n_inputs"] != CALIBRATION_CLIPS or not 0.0 <= report["top1_agreement"] <= 1.0:
            failures.append(f"agreement_report: {report}")
    if out["quantize"]:
        q = out["quantize"][-1][0]
        spec = inputs.calibration[0]
        check("quantize_model", oracles.check_int8_logits, q, spec.data, quantize.quantized_forward(q, spec).logits)
    for _, history in out["train"]:
        losses = [r.train_loss for r in history.epochs]
        if len(losses) != 1 or not math.isfinite(losses[0]):
            failures.append(f"train: epoch losses {losses}")

    model64 = zoo.load_model(inputs.tasc)
    for layer in model64.layers:
        for name in layer.weight_names():
            layer.weights[name] = layer.weights[name].astype(np.float64)
    model64.dtype = np.float64
    spec, label = inputs.train_set[0]
    x = spec.data[None, ..., None].astype(np.float64)
    check(
        "backward_graph",
        oracles.check_gradient_entries,
        oracles.gradient_entries(zoo, model64, x, label, rng, GRADIENT_ENTRIES),
        GRADIENT_ENTRIES,
    )

    for phase, key in (("request", "float"), ("int8", "int8")):
        mine = next(pred.logits for i, _, pred in out[phase] if i == 0)
        for child in out["setup"]:
            if not np.allclose(child[key], mine, rtol=1e-5, atol=1e-6):
                failures.append(f"set-up warm-up {key} logits differ from the run's for the same WAV")
    return failures


# --- the run ---------------------------------------------------------------


def macs_per_clip(model):
    per_kind = {k: 0 for k in spans.MAC_KINDS}
    for row in audit.audit_model(model).rows:
        if row.kind in per_kind:
            per_kind[row.kind] += row.macs
    return per_kind


def run(workload, seed, seconds, trace, repo):
    """One benchmark run; returns the result object printed as its last line."""
    results = os.path.join(repo, "perfbench", "results")
    workdir = os.path.join(repo, "perfbench", ".work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    os.makedirs(workdir)
    tracer = spans.Tracer() if trace else None
    try:
        inputs = Inputs(workload, seed, workdir)
        bench = Run(tracer)
        if tracer is not None:
            tracer.install()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        e2e, out, clips, model, qm = timed_phases(bench, inputs, workload, seconds, repo)
        cpu_per_wall = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
        if tracer is not None:
            tracer.uninstall()
        failures = check_outputs(inputs, out, model, qm, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in bench.errors + failures:
        print(f"error: {line}", file=sys.stderr)
    print(f"info: process CPU / wall over the timed phases = {cpu_per_wall:.3f}")
    e2e_metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if tracer is not None:
        print("info: end-to-end under tracing " + json.dumps({k: v["value"] for k, v in e2e_metrics.items()}))
        summary = tracer.summary()
        for child in out["setup"]:
            for key, (calls, self_s, size) in child["summary"].items():
                row = summary.setdefault(key, [0, 0.0, 0])
                row[0] += calls
                row[1] += self_s
                row[2] += size
        tracer.write(os.path.join(results, f"{workload}-seed{seed}-spans.jsonl"))
        reported = spans.per_layer_metrics(summary, clips, macs_per_clip(model))
    else:
        reported = e2e_metrics
    result = {
        "correct": not failures and all(math.isfinite(m["value"]) for m in reported.values()),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": reported,
    }
    with open(os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result
