"""One fresh-process set-up, timed from outside by the benchmark.

Imports tinyasc, loads the float checkpoint and the quantized model, and
serves one warm-up request on each path. Prints one JSON line with both
warm-up logits and, when tracing, the self-time summary of its spans.

    python3 perfbench/setup_child.py SRC TASC TASQ WAV TRACE
"""

import json
import os
import sys


def main(argv):
    src, tasc, tasq, wav, trace = argv
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tinyasc import data, frontend, quantize, zoo

    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    model = zoo.load_model(tasc)
    qm = quantize.load_quantized(tasq)
    float_pred = zoo.forward(model, frontend.log_mel(data.read_wav(wav)))
    int8_pred = quantize.quantized_forward(qm, frontend.log_mel(data.read_wav(wav)))
    out = {"float": float_pred.logits.tolist(), "int8": int8_pred.logits.tolist()}
    if tracer is not None:
        out["summary"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
