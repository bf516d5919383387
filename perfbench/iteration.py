"""One iteration of one workload, in the fresh process that ``run.py`` starts.

    python3 perfbench/iteration.py --workload NAME --seed N \
        --mode plain|boundary|traced --spawned-at MONOTONIC_SECONDS

``plain`` wraps nothing; ``boundary`` times only the ``fourth_moment.estimate``
call boundary (for the Monte Carlo rate); ``traced`` installs every span of
``layers.TARGETS``.  The last line of standard output is one JSON object with
the iteration's timings, operation counts, output digests and, when traced,
its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

MODES = ("plain", "boundary", "traced")


def _python_block():
    """Interpreter-bound work: exact rational sums keyed in a dict."""
    terms = {}
    for i in range(1, 60):
        for j in range(1, 60):
            key = (i * j) % 17
            terms[key] = terms.get(key, Fraction(0)) + Fraction(i, j + 1) * Fraction(j, i + 2)


def _numpy_block():
    """Vector-bound work: complex array arithmetic."""
    z = np.linspace(-3.0, 3.0, 16_384) * (1 + 0.5j)
    for _ in range(320):
        float(np.sum(np.abs(z * z - 1.0) ** 2))


# Fixed work that does not use chaoslab, in blocks of about 25 ms, spread
# evenly before each timed call and after the last.  The speed of a shared
# machine drifts by tens of percent within seconds, and the drift slows
# interpreter-bound and vector-bound code by different factors, so each
# workload is normalized by the reference of its own dominant kind of work.
REFERENCES = {"python": _python_block, "numpy": _numpy_block}
REFERENCE_BLOCKS = 24


def _reference_seconds(block, count: int) -> float:
    t0 = time.perf_counter()
    for _ in range(count):
        block()
    return time.perf_counter() - t0


def run_iteration(workload: str, seed: int, workdir: Path, mode: str,
                  tiny: bool = False) -> dict:
    """Prepare, run and check one workload; returns the iteration record."""
    prepared = WORKLOADS[workload].prepare(seed, workdir, tiny)
    tracer = {"plain": None, "boundary": layers.traced(layers.BOUNDARY),
              "traced": layers.traced()}[mode]
    # the reference runs in untraced iterations only: blocks per gap between calls
    block = REFERENCES[WORKLOADS[workload].reference]
    gaps = len(prepared.ops) + 1
    blocks = [len(range(i, REFERENCE_BLOCKS, gaps)) if mode == "plain" else 0
              for i in range(gaps)]
    results = []
    wall = ref = 0.0
    with tracer or nullcontext():
        first_call = time.monotonic()
        for op, count in zip(prepared.ops, blocks):
            ref += _reference_seconds(block, count)
            t0 = time.perf_counter()
            try:
                results.append((True, op.call()))
            except Exception as exc:  # a failed operation is data, not a crash
                results.append((False, f"raised {type(exc).__name__}: {exc}"))
            wall += time.perf_counter() - t0
        ref += _reference_seconds(block, blocks[-1])
    failures = []
    for op, (ok, result) in zip(prepared.ops, results):
        if not ok:
            failures.append(f"{op.name}: {result}")
            continue
        try:
            op.check(result)
        except Exception as exc:
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
    record = {
        "first_call": first_call,
        "wall_s": wall,
        "ref_s": ref,
        "attempted": len(prepared.ops),
        "failed": len(failures),
        "failures": failures,
        "digests": prepared.digests,
        "info": prepared.info,
    }
    if tracer is not None:
        spans = tracer.spans()
        record["mc_samples"], record["mc_seconds"] = layers.mc_rate(spans)
        if mode == "traced":
            record["layers"] = layers.layer_metrics(spans, tracer.counts())
    return record


def _versions() -> dict:
    import scipy

    import chaoslab
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "chaoslab": chaoslab.__version__,
            "nproc": os.cpu_count(), "nproc_usable": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=MODES)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    import chaoslab.cli  # noqa: F401  (loads every module the tracer rebinds)
    src = (ROOT / "src").resolve()
    if Path(chaoslab.cli.__file__).resolve().parent.parent != src:
        print(f"error: chaoslab imported from {chaoslab.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        record = run_iteration(args.workload, args.seed, workdir, args.mode)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["setup_s"] = record.pop("first_call") - args.spawned_at
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["versions"] = _versions()
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
