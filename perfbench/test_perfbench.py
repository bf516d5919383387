"""Tests of the benchmark's own tracer, its rebinding and its metric table.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import layers  # noqa: E402
from perfbench.iteration import run_iteration  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402
from perfbench.tracer import Span, Target, Tracer, covered_length, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


# -- self-time arithmetic -------------------------------------------------------------


def test_self_time_nested_spans():
    spans = [Span(1, None, "outer", 0.0, 10.0, {}),
             Span(2, 1, "mid", 1.0, 4.0, {}),
             Span(3, 2, "inner", 2.0, 3.0, {}),
             Span(4, 1, "mid", 5.0, 6.5, {})]
    got = self_times(spans)
    assert got == {1: pytest.approx(5.5), 2: pytest.approx(2.0),
                   3: pytest.approx(1.0), 4: pytest.approx(1.5)}


def test_self_time_children_on_two_threads_overlap_once():
    # children [1, 6] and [4, 8] ran at once on two threads: 7 s covered, not 9
    spans = [Span(1, None, "estimate", 0.0, 10.0, {}),
             Span(2, 1, "chunk", 1.0, 6.0, {}),
             Span(3, 1, "chunk", 4.0, 8.0, {})]
    assert self_times(spans)[1] == pytest.approx(3.0)
    assert covered_length([(1.0, 6.0), (4.0, 8.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(8.0)


@pytest.fixture
def fake_package():
    """A two-module package whose second module imported a name from the first."""
    base = types.ModuleType("fakepkg.base")

    def work(x):
        time.sleep(0.02)
        return x

    def fan_out(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(base.work, range(n)))

    base.work, base.fan_out = work, fan_out
    user = types.ModuleType("fakepkg.user")
    user.work = work
    user.registry = [work, fan_out]
    pkg = types.ModuleType("fakepkg")
    mods = {"fakepkg": pkg, "fakepkg.base": base, "fakepkg.user": user}
    sys.modules.update(mods)
    yield base, user
    for name in mods:
        del sys.modules[name]


def test_pool_children_attributed_to_the_submitting_span(fake_package):
    base, user = fake_package
    tracer = Tracer([Target("base", "work", "base.work"),
                     Target("base", "fan_out", "base.fan_out")], "fakepkg")
    with tracer:
        base.fan_out(4)
    spans = tracer.spans()
    outer = [s for s in spans if s.name == "base.fan_out"]
    kids = [s for s in spans if s.name == "base.work"]
    assert len(outer) == 1 and len(kids) == 4
    assert all(k.parent == outer[0].sid for k in kids)
    union = covered_length([(k.start, k.end) for k in kids], outer[0].start, outer[0].end)
    assert union < sum(k.duration for k in kids)  # the two threads overlapped
    assert self_times(spans)[outer[0].sid] == pytest.approx(outer[0].duration - union)


def test_rebinds_every_namespace_and_list_then_restores(fake_package):
    base, user = fake_package
    original = base.work
    with Tracer([Target("base", "work", "base.work")], "fakepkg") as tracer:
        assert base.work is not original
        assert user.work is base.work and user.registry[0] is base.work
        user.work(1)
        user.registry[0](2)
    assert base.work is original and user.work is original and user.registry[0] is original
    assert len(tracer.spans()) == 2


def test_renamed_target_fails_loudly_and_restores(fake_package):
    base, _ = fake_package
    original = base.work
    tracer = Tracer([Target("base", "work", "base.work"),
                     Target("base", "no_such_function", "base.gone")], "fakepkg")
    with pytest.raises(AttributeError):
        with tracer:
            pass
    assert base.work is original


def test_counts_are_exact_across_threads(fake_package):
    base, _ = fake_package
    tracer = Tracer([Target("base", "work", "base.work", span=False)], "fakepkg")
    with tracer:
        threads = [threading.Thread(target=lambda: [base.work(0) for _ in range(3)])
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    assert tracer.counts() == {"base.work": 12}


# -- the chaoslab targets ------------------------------------------------------------


def test_chaoslab_imported_names_and_operator_aliases_are_rebound():
    import chaoslab.cli  # noqa: F401
    from chaoslab import chaos, exact, fourth_moment, identities, wick

    saved = (chaos.sample_batch, chaos.exact_moment, wick.expect,
             exact.ExactComplex.__mul__, list(identities.SUITES))
    with layers.traced():
        assert fourth_moment.sample_batch is chaos.sample_batch is not saved[0]
        assert fourth_moment.exact_moment is chaos.exact_moment is not saved[1]
        assert chaos.expect is wick.expect is not saved[2]
        mul = exact.ExactComplex.__dict__["__mul__"]
        assert mul is not saved[3] and exact.ExactComplex.__dict__["__rmul__"] is mul
        assert all(a is not b for a, b in zip(identities.SUITES, saved[4]))
    assert (chaos.sample_batch, chaos.exact_moment, wick.expect,
            exact.ExactComplex.__mul__, identities.SUITES) == saved
    assert exact.ExactComplex.__dict__["__rmul__"] is saved[3]


def _clear_caches():
    """Start from cold ``lru_cache``s, as a fresh process does."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("chaoslab"):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_busy_layer_metric_fires_on_a_tiny_instance(workload, tmp_path):
    _clear_caches()
    rec = run_iteration(workload, 3, tmp_path, "traced", tiny=True)
    assert rec["failed"] == 0, rec["failures"]
    fired = dict(rec["layers"], **{"mc_samples_per_s": rec["mc_samples"],
                                   "trace.overhead_frac": 1})
    idle = [m for m in WORKLOADS[workload].busy if not fired[m] > 0]
    assert not idle, f"{workload}: per-layer metrics read 0: {idle}"


def test_busy_lists_cover_every_per_layer_metric():
    busy = {m for w in WORKLOADS.values() for m in w.busy}
    assert busy == set(layers.PER_LAYER)


def test_boundary_mode_times_only_the_estimate_call(tmp_path):
    rec = run_iteration("dense-kernel", 3, tmp_path, "boundary", tiny=True)
    assert rec["failed"] == 0 and rec["mc_samples"] == 2_000 and rec["mc_seconds"] > 0
    assert "layers" not in rec


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == \
        [(name, unit, better) for name, (unit, better) in END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [(name, unit, better) for name, (unit, better) in layers.PER_LAYER.items()]
