"""chaoslab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``all`` four, one after another) as a closed loop with
a single client: iterations run back to back, each in a fresh Python process
started from this checkout's ``src``, until the next one would end after
``--seconds``.

With ``--trace 0`` every iteration is untraced and the end-to-end metrics
are reported: ``setup_s`` and ``peak_rss_mb`` as medians over the
iterations, and ``wall_norm``, the wall time of the timed calls divided by
the wall time of a fixed reference computation that does not use chaoslab,
run between the timed calls (``iteration.REFERENCES``).  The speed of a
shared machine drifts by tens of percent over seconds, which the ratio
cancels; the raw wall time is kept in the ``meta`` line.

With ``--trace 1`` untraced and traced iterations alternate; the traced ones
give the per-layer metrics, the untraced ones the Monte Carlo rate at the
``estimate`` call boundary and the tracing overhead.

Each metric is printed by name with its unit, then one ``meta`` line (run
metadata, output digests, informational fields such as the KS p-value),
then, as the last line, ``{"correct", "attempted", "failed", "metrics"}``.
An operation fails when it raises or its output fails its check; ``correct``
also requires equal output digests across the run's iterations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_norm": ("ref", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

ITERATION_TIMEOUT_S = 120



class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def _iteration(workload: str, seed: int, mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(ROOT / "perfbench" / "iteration.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} iteration ran over {ITERATION_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} iteration exited {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload} iteration printed no record:\n{proc.stdout}{proc.stderr}")


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted((ROOT / "src" / "chaoslab").glob("*.py")))


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    modes = ("boundary", "traced") if trace else ("plain",)
    start = time.monotonic()
    runs = []  # (mode, record, seconds taken)
    while True:
        mode = modes[len(runs) % len(modes)]
        t0 = time.monotonic()
        runs.append((mode, _iteration(workload, seed, mode), time.monotonic() - t0))
        if len(runs) < len(modes):
            continue
        nxt = modes[len(runs) % len(modes)]
        predicted = statistics.median(took for m, _, took in runs if m == nxt)
        if time.monotonic() - start + predicted > seconds:
            break

    records = [rec for _, rec, _ in runs]
    by_mode = {m: [rec for mm, rec, _ in runs if mm == m] for m in modes}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    digests = records[0]["digests"]
    steady = all(r["digests"] == digests for r in records)
    med = statistics.median
    extra = {}
    if trace:
        traced, untraced = by_mode["traced"], by_mode["boundary"]
        metrics = {name: med(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["mc_samples_per_s"] = med(
            r["mc_samples"] / r["mc_seconds"] if r["mc_seconds"] > 0 else 0.0 for r in untraced)
        metrics["trace.overhead_frac"] = (med(r["wall_s"] for r in traced)
                                          / med(r["wall_s"] for r in untraced) - 1.0)
        units = PER_LAYER
    else:
        plain = by_mode["plain"]
        metrics = {name: med(r[name] for r in plain) for name in ("setup_s", "peak_rss_mb")}
        # a ratio of totals: the machine's speed switches between states
        # within seconds, which sums over the run average out better than a
        # median of per-iteration ratios
        metrics["wall_norm"] = sum(r["wall_s"] for r in plain) / sum(r["ref_s"] for r in plain)
        units = END_TO_END
        extra = {"wall_s": med(r["wall_s"] for r in plain),
                 "reference_s": med(r["ref_s"] for r in plain)}
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "iterations": {m: len(rs) for m, rs in by_mode.items()},
        "elapsed_s": time.monotonic() - start,
        **records[0]["versions"],
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
        "ops_failed_frac": failed / attempted,
        "digests": digests,
        "digests_equal_across_iterations": steady,
        "info": records[-1]["info"],
        "failures": sorted({f for r in records for f in r["failures"]}),
        **extra,
    }
    for name in units:
        print(f"{name} {metrics[name]!r} {units[name][0]}")
    print(f"ops_failed_frac {failed / attempted!r} ({failed} of {attempted} operations)")
    print("meta " + json.dumps(meta, sort_keys=True))
    return {"correct": failed == 0 and steady, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                        for name in units}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "chaoslab" / "__init__.py").is_file():
        print(f"error: no chaoslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".perfbench_tmp").rmdir()  # each iteration removed its own files
        except OSError:
            pass
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
