"""The benchmark's four workloads: inputs, timed operations and their checks.

Every workload is a closed loop of one client: its operations run one after
another in a fresh process, so ``lru_cache``s start cold the way they do for
a user of the CLI.  ``prepare`` builds the inputs (set-up time) and returns
the operations; each operation is one timed library or CLI call followed by
an untimed check.  ``tiny`` shrinks every size so the tests can drive the
same code in well under a second per workload.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from .layers import SUITE_NAMES


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]  # raises CheckFailed


@dataclass
class Prepared:
    ops: List[Op]
    # filled in by the checks: output digests and informational fields
    digests: Dict[str, str] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path, bool], Prepared]
    # kind of iteration.REFERENCES work that dominates, to normalize wall time by
    reference: str
    # per-layer metrics this workload exercises (the tests require each > 0)
    busy: tuple


def _quiet(fn, *args):
    """Call ``fn`` with the CLI's progress lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


# -- exact-oracle ------------------------------------------------------------------


def _block_law(base, k: int):
    """E|F_k|^4 = L + (E|A|^4 - L)/k, L = 2 (E|A|^2)^2 + |E A^2|^2, exactly."""
    a2, sq = Fraction(base.abs2), complex(base.sq)
    sq_abs2 = Fraction(sq.real) ** 2 + Fraction(sq.imag) ** 2
    law = 2 * a2 * a2 + sq_abs2
    return law + (Fraction(base.abs4) - law) / k


def prepare_exact_oracle(seed: int, workdir: Path, tiny: bool) -> Prepared:
    """Fixed by the paper's identities; the seed is not used."""
    from chaoslab import fourth_moment as fm
    from chaoslab.exact import EC

    def mixed(k):
        half = EC(Fraction(1, 2))
        return [(half, fm.gen_block_kernel(2, 0, k)), (half, fm.gen_block_kernel(1, 1, k))]

    k12 = (1,) if tiny else (1, 2)
    k11 = (1, 2) if tiny else (1, 2, 4)
    kmix = (1,) if tiny else (1, 2)
    kcon = (1, 2) if tiny else (1, 4, 16)
    targets = ([("(1,2)", k, fm.gen_block_kernel(1, 2, k)) for k in k12]
               + [("(1,1)", k, fm.gen_block_kernel(1, 1, k)) for k in k11]
               + [("mixed", k, mixed(k)) for k in kmix])
    gap_kernel = fm.gen_block_kernel(1, 2, 1 if tiny else 2)
    contraction_seq = [(k, fm.gen_block_kernel(2, 2, k)) for k in kcon]
    first = {}
    prepared = Prepared([])

    def report_check(label, k):
        def check(rep):
            prepared.digests[f"{label}k{k}"] = sha256(repr(rep).encode())
            if k == 1:
                first[label] = rep
                want = {"(1,2)": (2, 0, 176), "(1,1)": (1, 1, 9),
                        "mixed": (Fraction(3, 4), Fraction(1, 4), None)}[label]
                require(rep.abs2 == want[0], f"abs2 = {rep.abs2}")
                require(rep.sq == want[1], f"sq = {rep.sq}")
                require(want[2] is None or rep.abs4 == want[2], f"abs4 = {rep.abs4}")
            else:
                base = first[label]
                require(rep.abs2 == base.abs2 and rep.sq == base.sq,
                        "E|F|^2 and E F^2 must not depend on k")
                require(Fraction(rep.abs4) == _block_law(base, k),
                        f"abs4 = {rep.abs4} off the block law at k={k}")
        return check

    for label, k, target in targets:
        prepared.ops.append(Op(f"exact_report{label}k={k}",
                               lambda t=target: fm.exact_report(t),
                               report_check(label, k)))

    def gaps_check(gaps):
        for g in gaps:
            require(g.is_real() and g.real_sign() >= 0, f"gap {g!r} is not real and >= 0")

    def contraction_check(out):
        require(out["nonincreasing"], f"contraction trajectory increases: {out['rows']}")

    prepared.ops.append(Op("component_gaps", lambda: fm.component_gaps(gap_kernel),
                           gaps_check))
    prepared.ops.append(Op("contraction_trajectory",
                           lambda: fm.contraction_trajectory(contraction_seq),
                           contraction_check))
    return prepared


# -- mc-experiment -----------------------------------------------------------------


def prepare_mc_experiment(seed: int, workdir: Path, tiny: bool) -> Prepared:
    """Acceptance-10 config through the CLI: block (1,2), k 4/16/64, exact
    references, KS at the last k."""
    from chaoslab import cli

    ks = [1, 4] if tiny else [4, 16, 64]
    config = {
        "seed": seed,
        "n_samples": 2_000 if tiny else 200_000,
        "workers": 2,
        "kernel": {"block": {"m": 1, "n": 2}},
        "k_values": ks,
        "criterion": {"case": "gaussian-offdiag", "sigma2": 2.0, "m": 1, "n": 2},
        "exact_reference": True,
        "ks": {"k": ks[-1], "component": "re"},
    }
    cfg_path = workdir / "experiment.json"
    cfg_path.write_text(json.dumps(config, indent=2) + "\n")
    out = workdir / "experiment_out"
    prepared = Prepared([])

    def check(rc):
        require(rc == 0, f"chaoslab experiment exited {rc}")
        csv_bytes = (out / "moments.csv").read_bytes()
        verdict_bytes = (out / "verdict.json").read_bytes()
        prepared.digests["moments.csv"] = sha256(csv_bytes)
        prepared.digests["verdict.json"] = sha256(verdict_bytes)
        doc = json.loads(verdict_bytes)
        # informational only: acceptance 10c's known KS failure stays visible
        prepared.info["ks_p_bound"] = doc["ks"]["p_bound"]
        prepared.info["ks_distance"] = doc["ks"]["distance"]
        outside = []
        for name, q in doc["quantities"].items():
            for row in q["rows"]:
                # exact block-law references: E|F|^2 = 2, E F^2 = 0, E|F_k|^4 = 8 + 168/k
                want = {"abs2": 2, "sq": 0, "abs4": 8 + Fraction(168, row["k"])}[name]
                require([Fraction(x) for x in row["reference"]] == [want, 0],
                        f"{name} reference at k={row['k']} is {row['reference']}, not {want}")
                if not row["pass"]:
                    outside.append((name, row["k"]))
        # Rows are data, like the verdict.  The abs4 rows' plug-in standard
        # error comes from eighth moments and runs low on about one seed in
        # seventy (seed 101: 42.2 against 50 at k=4, 5.3 SE), so those stay
        # informational; the second-moment rows must pass.
        prepared.info["verdict_rows_outside_tolerance"] = outside
        bad = [row for row in outside if row[0] != "abs4"]
        require(not bad, f"second-moment verdict rows outside tolerance: {bad}")

    prepared.ops.append(Op("cli experiment",
                           lambda: _quiet(cli.main, ["experiment", str(cfg_path),
                                                     "--out", str(out)]),
                           check))
    return prepared


# -- dense-kernel ------------------------------------------------------------------


def prepare_dense_kernel(seed: int, workdir: Path, tiny: bool) -> Prepared:
    """Rank-one (2,2) kernel over d=8 (1,296 stored terms), one worker.

    h is drawn from the seed and scaled to |h|^2 = 2^-1/2, so that
    E|F|^2 = 2! 2! |h|^8 = 1 by the isometry.
    """
    from chaoslab import fourth_moment as fm
    from chaoslab.tensor import ComplexKernel

    d, n_samples = (2, 2_000) if tiny else (8, 300_000)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    h *= 2.0 ** -0.25 / np.linalg.norm(h)
    kernel = ComplexKernel.rank_one([complex(x) for x in h], 2, 2)
    expected = 4.0 * kernel.norm_sq()
    prepared = Prepared([])

    def check(rep):
        prepared.digests["MomentReport"] = sha256(repr(rep).encode())
        require(abs(rep.abs2 - expected) <= 5.0 * rep.abs2_se,
                f"abs2 = {rep.abs2} +- {rep.abs2_se}, isometry gives {expected}")

    prepared.ops.append(Op("estimate", lambda: fm.estimate(kernel, n_samples, seed, workers=1),
                           check))
    prepared.info["stored_terms"] = len(kernel.data)
    return prepared


# -- identities --------------------------------------------------------------------


def prepare_identities(seed: int, workdir: Path, tiny: bool) -> Prepared:
    """The exact identity suites to degree 5; the seed is not used."""
    from chaoslab import cli

    out = workdir / "identities_out"
    prepared = Prepared([])

    def check(rc):
        require(rc == 0, f"chaoslab identities exited {rc}")
        report = (out / "identities_report.csv").read_bytes()
        prepared.digests["identities_report.csv"] = sha256(report)
        rows = list(csv.DictReader(io.StringIO(report.decode())))
        bad = [(r["name"], r["detail"]) for r in rows if r["status"] != "pass"]
        require(rows and not bad, f"identity suites failed: {bad}")

    prepared.ops.append(Op("cli identities",
                           lambda: _quiet(cli.main, ["identities", "--max-degree",
                                                     "2" if tiny else "5", "--out", str(out)]),
                           check))
    return prepared


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("exact-oracle", prepare_exact_oracle, "python", (
        "fourth_moment.exact_report.self_s", "chaos.exact_moment.self_s",
        "chaos.exact_moment.calls", "chaos.element_poly.self_s", "chaos.decompose.self_s",
        "wick.GaussPoly.mul.self_s", "wick.GaussPoly.mul.calls",
        "wick.GaussPoly.mul.term_pairs", "wick.expect.self_s", "wick.expect.terms",
        "exact.ExactComplex.mul.calls", "exact.ExactComplex.add.calls",
        "tensor.contract.self_s", "tensor.contract.out_terms", "trace.overhead_frac")),
    Workload("mc-experiment", prepare_mc_experiment, "numpy", (
        "mc_samples_per_s", "chaos.sample_batch.self_s", "chaos.sample_batch.normals",
        "chaos.eval_complex.self_s", "chaos.eval_complex.term_evals",
        "hermite.evaluate.self_s", "fourth_moment.estimate.self_s",
        "fourth_moment.estimate.parallel_eff",
        "fourth_moment.collect_component_samples.samples",
        "fourth_moment.ks_distance.self_s", "cli.run_experiment.self_s", "cli.main.self_s",
        "trace.overhead_frac")),
    Workload("dense-kernel", prepare_dense_kernel, "numpy", (
        "mc_samples_per_s", "chaos.eval_complex.self_s", "chaos.eval_complex.term_evals",
        "hermite.evaluate.self_s", "fourth_moment.estimate.self_s", "fourth_moment.estimate.parallel_eff",
        "trace.overhead_frac")),
    Workload("identities", prepare_identities, "python", (
        "exact.ExactComplex.mul.calls", "exact.ExactComplex.add.calls",
        "hermite.BiPoly.mul.self_s", "hermite.BiPoly.mul.calls",
        "hermite.complex_hermite.self_s", "hermite.ou_apply.self_s",
        "convert.conversion_tables.self_s", "convert.build_angle_matrix_exact.self_s",
        "convert.complex_to_hermite_coeffs.self_s", "convert.hermite_to_complex_coeffs.self_s",
        "cli.main.self_s", "trace.overhead_frac")
        + tuple(f"identities.{s}.self_s" for s in SUITE_NAMES)),
)}
