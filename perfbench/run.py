"""The repository benchmark: one workload per run, checked and calibrated.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rewrite-report --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates traced and untraced rounds and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the full run
record (raw values, kernel samples, sample counts, host facts) and, for
traced runs, the span file are written under ``.perfbench-out/``.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import os
import sys

HASH_SEED = "0"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("rewrite-report", "fallback-vm", "compile-cold",
                  "serve-ingest")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_hash_seed(argv):
    """Re-execute under a fixed ``PYTHONHASHSEED`` so set and dict
    iteration orders, and with them the work done, repeat exactly."""
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED:
        return
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    os.execve(sys.executable,
              [sys.executable, os.path.abspath(__file__)] + list(argv), env)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    _pin_hash_seed(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("perfbench: the program's sources (src/repro) are missing "
              "next to %s" % HERE, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness

    return harness.main(args, OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
