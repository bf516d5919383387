"""The per-layer metrics of the traced run and the wrappers that measure them.

Each span target is a public function or method of a ``chaoslab`` module.
Metric names are ``<module>.<function>.<quantity>``; ``self_s`` is the
summed self time of the target's spans, ``calls`` their number, and the
other quantities are work counts taken at the call boundary.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .tracer import Span, Target, Tracer, self_times

PACKAGE = "chaoslab"


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    """Argument ``name`` at position ``pos``, passed either way."""
    if len(args) > pos:
        return args[pos]
    if default is None:
        return kwargs[name]
    return kwargs.get(name, default)


def _gausspoly_pairs(args, kwargs, result):
    a, b = args
    return {"term_pairs": len(a.terms()) * len(b.terms())} if isinstance(b, type(a)) else {}


SUITE_NAMES = ("suite_conversion_roundtrip", "suite_basis_expansion",
               "suite_monomial_expansion", "suite_conjugation_symmetry",
               "suite_ou_eigenrelation", "suite_hermite_recurrence",
               "suite_rotation_identity", "suite_rotation_to_complex",
               "suite_pair_reconstruction", "suite_complex_reconstruction",
               "suite_angle_matrix_determinant", "suite_angle_matrix_inverse")

TARGETS: List[Target] = [
    Target("chaos", "sample_batch", "chaos.sample_batch",
           quantities=lambda a, k, r: {"normals": r.xi.size + r.eta.size}),
    Target("chaos", "eval_complex", "chaos.eval_complex",
           quantities=lambda a, k, r: {"term_evals": len(a[0].data) * np.size(r)}),
    Target("hermite", "evaluate", "hermite.evaluate"),
    Target("fourth_moment", "estimate", "fourth_moment.estimate",
           quantities=lambda a, k, r: {"samples": _arg(a, k, 1, "n_samples"),
                                       "workers": _arg(a, k, 3, "workers", 1)}),
    Target("fourth_moment", "collect_component_samples",
           "fourth_moment.collect_component_samples",
           quantities=lambda a, k, r: {"samples": len(r)}),
    Target("fourth_moment", "ks_distance", "fourth_moment.ks_distance"),
    Target("chaos", "exact_moment", "chaos.exact_moment"),
    Target("chaos", "element_poly", "chaos.element_poly"),
    Target("chaos", "decompose", "chaos.decompose"),
    Target("wick", "GaussPoly.__mul__", "wick.GaussPoly.mul", quantities=_gausspoly_pairs),
    Target("wick", "expect", "wick.expect",
           quantities=lambda a, k, r: {"terms": len(_arg(a, k, 1, "poly").terms())}),
    Target("exact", "ExactComplex.__mul__", "exact.ExactComplex.mul", span=False),
    Target("exact", "ExactComplex.__add__", "exact.ExactComplex.add", span=False),
    Target("fourth_moment", "exact_report", "fourth_moment.exact_report"),
    Target("tensor", "contract", "tensor.contract",
           quantities=lambda a, k, r: {"out_terms": len(r.data)}),
    Target("hermite", "BiPoly.__mul__", "hermite.BiPoly.mul"),
    Target("hermite", "complex_hermite", "hermite.complex_hermite"),
    Target("hermite", "ou_apply", "hermite.ou_apply"),
    Target("convert", "conversion_tables", "convert.conversion_tables"),
    Target("convert", "build_angle_matrix_exact", "convert.build_angle_matrix_exact"),
    Target("convert", "complex_to_hermite_coeffs", "convert.complex_to_hermite_coeffs"),
    Target("convert", "hermite_to_complex_coeffs", "convert.hermite_to_complex_coeffs"),
    *[Target("identities", s, f"identities.{s}") for s in SUITE_NAMES],
    Target("cli", "run_experiment", "cli.run_experiment"),
    Target("cli", "main", "cli.main"),
]

# The call boundary timed in untraced iterations for the Monte Carlo rate.
BOUNDARY = [t for t in TARGETS if t.name == "fourth_moment.estimate"]

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER: Dict[str, tuple] = {
    "mc_samples_per_s": ("1/s", "higher"),
    "chaos.sample_batch.self_s": ("s", "lower"),
    "chaos.sample_batch.normals": ("count", "lower"),
    "chaos.eval_complex.self_s": ("s", "lower"),
    "chaos.eval_complex.term_evals": ("count", "lower"),
    "hermite.evaluate.self_s": ("s", "lower"),
    "fourth_moment.estimate.self_s": ("s", "lower"),
    "fourth_moment.estimate.parallel_eff": ("ratio", "higher"),
    "fourth_moment.collect_component_samples.samples": ("count", "lower"),
    "fourth_moment.ks_distance.self_s": ("s", "lower"),
    "chaos.exact_moment.self_s": ("s", "lower"),
    "chaos.exact_moment.calls": ("count", "lower"),
    "chaos.element_poly.self_s": ("s", "lower"),
    "chaos.decompose.self_s": ("s", "lower"),
    "wick.GaussPoly.mul.self_s": ("s", "lower"),
    "wick.GaussPoly.mul.calls": ("count", "lower"),
    "wick.GaussPoly.mul.term_pairs": ("count", "lower"),
    "wick.expect.self_s": ("s", "lower"),
    "wick.expect.terms": ("count", "lower"),
    "exact.ExactComplex.mul.calls": ("count", "lower"),
    "exact.ExactComplex.add.calls": ("count", "lower"),
    "fourth_moment.exact_report.self_s": ("s", "lower"),
    "tensor.contract.self_s": ("s", "lower"),
    "tensor.contract.out_terms": ("count", "lower"),
    "hermite.BiPoly.mul.self_s": ("s", "lower"),
    "hermite.BiPoly.mul.calls": ("count", "lower"),
    "hermite.complex_hermite.self_s": ("s", "lower"),
    "hermite.ou_apply.self_s": ("s", "lower"),
    "convert.conversion_tables.self_s": ("s", "lower"),
    "convert.build_angle_matrix_exact.self_s": ("s", "lower"),
    "convert.complex_to_hermite_coeffs.self_s": ("s", "lower"),
    "convert.hermite_to_complex_coeffs.self_s": ("s", "lower"),
    **{f"identities.{s}.self_s": ("s", "lower") for s in SUITE_NAMES},
    "cli.run_experiment.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def traced(targets: Sequence[Target] = TARGETS) -> Tracer:
    return Tracer(targets, PACKAGE)


def mc_rate(spans: Sequence[Span]) -> tuple:
    """(samples, seconds) inside ``fourth_moment.estimate`` calls."""
    est = [s for s in spans if s.name == "fourth_moment.estimate"]
    return (sum(s.quantities.get("samples", 0) for s in est),
            sum(s.duration for s in est))


def layer_metrics(spans: Sequence[Span], counts: Dict[str, int]) -> Dict[str, float]:
    """Every span- and count-based per-layer metric of one traced iteration.

    Layers a workload leaves idle read 0.  ``mc_samples_per_s`` and
    ``trace.overhead_frac`` need an untraced iteration and are filled in by
    the caller.
    """
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + selfs[s.sid]
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        for q, v in s.quantities.items():
            out[f"{s.name}.{q}"] = out.get(f"{s.name}.{q}", 0) + v
    for name, n in counts.items():
        out[f"{name}.calls"] = n
    # parallel efficiency: wall time inside the estimate's child spans on every
    # thread (waits for the interpreter lock included) over the time its
    # workers were available
    busy = {}
    for s in spans:
        busy[s.parent] = busy.get(s.parent, 0.0) + s.duration
    est = [s for s in spans if s.name == "fourth_moment.estimate"]
    avail = sum(s.quantities.get("workers", 1) * s.duration for s in est)
    if avail > 0:
        out["fourth_moment.estimate.parallel_eff"] = sum(busy.get(s.sid, 0.0)
                                                         for s in est) / avail
    return {name: float(out.get(name, 0.0)) for name in PER_LAYER
            if name not in ("mc_samples_per_s", "trace.overhead_frac")}
