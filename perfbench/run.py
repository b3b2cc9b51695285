"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload conv_sep --seed 1 --seconds 40 --trace 0

Runs from the root of a checkout and imports tinyasc from its ``src``.
BLAS and the engine are held to one thread before numpy loads. The last
line of standard output is the result as one JSON object.
"""

import argparse
import json
import os
import sys

THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "TINYASC_THREADS": "1"}
WORKLOAD_NAMES = ("conv_sep", "conv_mixer")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(repo, "src")
    if not os.path.isfile(os.path.join(src, "tinyasc", "__init__.py")):
        print(f"error: no tinyasc sources under {src}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_SETTINGS)  # before numpy is first imported, below
    sys.path.insert(0, src)
    import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), repo)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
