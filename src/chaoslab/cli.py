"""Command line entry point: identity suites, the exact oracle, experiments.

Exit codes are a stable contract:

    0   run completed (for experiments: regardless of verdict, which is data)
    1   unexpected execution failure
    2   an exact identity suite failed
    64  bad arguments (including an --out that is not a directory) or a
        degree-budget violation
    65  config or expression file parse error, including an unknown key in
        any section, a malformed kernel section (kernel text, kernel file
        contents, file name or scale), an exact number in exponent notation,
        a kernel of degree m + n < 2, a kernel value or moments that
        overflow float (a kernel scaled by 10**100, say), a criterion whose
        limit moments overflow float (sigma2 = 1e200, or a chi-square case
        whose configured law does) or that has no configured chi-square law
        (a = 1), a ks section beside a chi-square case, and a value past a
        MAX_* bound below: kernel degree m + n, kernel dimension (block k),
        workers, n_samples beside a ks section, the oracle's complex_dim and
        the cells of one chunk, min(chunk_size, n_samples) x kernel dimension
    66  missing kernel file

A default seed may be supplied via the CHAOSLAB_SEED environment variable;
a seed present in a config always wins.

A config's ``workers`` is the number of pool threads of the Monte Carlo
estimate.  A kernel on the dense (Wick-trace) route runs its GEMMs on
OpenBLAS's own threads inside each pool thread, so at workers >= 2 run it
with OPENBLAS_NUM_THREADS=1: on 2 CPUs, 300,000 samples of a rank-one
(2,2) kernel over d = 8 at workers 2 took 0.69-0.82 s with the variable
unset and 0.33-0.34 s with it set to 1.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy
import scipy

from . import __version__, convert, fourth_moment as fm, hermite, identities
from .chaos import SEED_LIMIT, WICK_DEGREE_BUDGET
from .exact import EC, ExactComplex
from .tensor import _complex, load_kernel
from .wick import GaussianFamily, expect_complex

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_IDENTITY = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_NOKERNEL = 66

# Input bounds, each checked before anything it sizes is built (exit 65).
# J_{m,n}'s float coefficients reach 1e47 at degree m + n = 64 and leave
# double range near 300.  A block's exact reference at degree 64 takes
# 1.2 s (32, 32) to 2.4 s (63, 1) on 2 CPUs; the tests reach degree 20.
MAX_KERNEL_DEGREE = 64
# each sample draws 2 k normals, so one default chunk of 8192 samples at
# k = 1024 already takes about 400 MB; the tests and the benchmark reach 64
MAX_KERNEL_DIM = 1024
# the same memory bounds a chunk of any shape: (samples per chunk) x (kernel
# dimension), so a chunk_size of 10**12 is refused, not left to fail allocating
MAX_CHUNK_CELLS = 8192 * MAX_KERNEL_DIM
# each worker is a thread, started per chunk up to this count; it is
# ThreadPoolExecutor's own default ceiling
MAX_WORKERS = 32
# the KS side channel keeps each F (16 bytes) and sorts one part: about 5 GB
MAX_KS_SAMPLES = 10 ** 8
# twice the variables a term within WICK_DEGREE_BUDGET can reach; the exact
# covariance check of a dense gram this size takes about 0.2 s, growing with
# the cube of complex_dim
MAX_COMPLEX_DIM = 32


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(prog="chaoslab",
                description="exact chaos identities, moment oracle, experiments")
    sub = p.add_subparsers(dest="command", required=True)

    ids = sub.add_parser("identities", help="run the exact identity suites")
    ids.add_argument("--max-degree", type=int, required=True)
    ids.add_argument("--out", type=Path, required=True)
    ids.add_argument("--format", choices=("csv", "json"), default="csv")

    orc = sub.add_parser("oracle", help="print the exact moment of an expression file")
    orc.add_argument("expr_file", type=Path)

    exp = sub.add_parser("experiment", help="run a moment-trajectory experiment")
    exp.add_argument("config", type=Path)
    exp.add_argument("--out", type=Path, required=True)
    return p


# -- identities ---------------------------------------------------------------------


def _cmd_identities(args) -> int:
    if not 0 <= args.max_degree <= identities.MAX_SYMBOLIC_DEGREE:
        print(f"error: --max-degree must be within 0..{identities.MAX_SYMBOLIC_DEGREE}",
              file=sys.stderr)
        return EXIT_USAGE
    if not _out_dir_ok(args.out):
        return EXIT_USAGE
    args.out.mkdir(parents=True, exist_ok=True)
    results = identities.run_identity_suites(args.max_degree)
    rows = [{"name": r.name, "status": "pass" if r.passed else "fail",
             "detail": r.detail} for r in results]
    if args.format == "json":
        _write_text(args.out / "identities_report.json",
                    json.dumps({"max_degree": args.max_degree, "results": rows},
                               indent=2, sort_keys=True) + "\n")
    else:
        _write_text(args.out / "identities_report.csv",
                    _csv_text([["name", "status", "detail"], *(r.values() for r in rows)]))
    for n in range(args.max_degree + 1):
        for table in convert.conversion_tables(n):
            _write_text(args.out / f"table_{table.direction}_n{n}.csv",
                        _csv_text(convert.table_csv_rows(table)))
    # timings vary run to run, so they stay out of the report, whose bytes
    # are reproducible; an exact construction several suites share is built
    # once per run, and its cost is charged to the first suite that reads it
    manifest = {"max_degree": args.max_degree,
                "versions": {"chaoslab": __version__, "numpy": numpy.__version__,
                             "scipy": scipy.__version__},
                "suites": [{"name": r.name, "seconds": r.seconds} for r in results]}
    _write_text(args.out / "identities_manifest.json",
                json.dumps(manifest, indent=2) + "\n")
    failures = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}"
              + (f"  ({r.detail})" if r.detail else ""))
    if failures:
        print(f"error: identity suite failed: {failures[0].name}: {failures[0].detail}",
              file=sys.stderr)
        return EXIT_IDENTITY
    return EXIT_OK


# -- input values --------------------------------------------------------------------


def _read_json(path: Path, what: str):
    """The JSON value in a config or expression file.  A missing file, a
    directory, a file that is not UTF-8 and one that json cannot read (an
    integer of over 4300 digits and nesting too deep included) are malformed
    input (ConfigError)."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise fm.ConfigError(f"cannot read {what} {path}: {exc}")


def _section(obj, name: str, keys: str) -> dict:
    """``obj`` as a JSON object holding none but the space-separated ``keys``,
    so that a misspelt key is not silently ignored (ConfigError otherwise)."""
    if not isinstance(obj, dict):
        raise fm.ConfigError(f"{name} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(keys.split()))
    if unknown:
        raise fm.ConfigError(f"{name} has unknown keys {unknown}; it takes {keys}")
    return obj


_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string", list: "a list"}


def _value(value, kind: type, name: str, lo=None, hi=None):
    """``value`` as a field of type ``kind`` (int, float, bool, str or list)
    within lo..hi, which bound a list's length; a ConfigError otherwise.  A
    bool is not an integer, and a float must be finite."""
    if value is None:
        raise fm.ConfigError(f"{name} is missing")
    if kind is float:  # comparing, unlike float(), cannot overflow on an int
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and -sys.float_info.max <= value <= sys.float_info.max)
    else:
        ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    if not ok:
        raise fm.ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    size, what = (len(value), f"the length of {name}") if kind is list else (value, name)
    if lo is not None and size < lo:
        raise fm.ConfigError(f"{what} must be at least {lo}, got {size}")
    if hi is not None and size > hi:
        raise fm.ConfigError(f"{what} must be at most {hi}, got {size}")
    return float(value) if kind is float else value


def _parse_exact(x) -> ExactComplex:
    """An exact number: an integer, a string, or a [re, im] pair of them."""
    if isinstance(x, list) and len(x) == 2:
        return ExactComplex(_exact_part(x[0]), _exact_part(x[1]))
    return EC(_exact_part(x))


def _exact_part(v) -> Fraction:
    """An integer, or an integer, decimal or p/q string.  Exponent notation
    is refused: Fraction writes out every digit of 1e10000000."""
    try:
        if isinstance(v, int) and not isinstance(v, bool):
            return Fraction(v)
        if isinstance(v, str) and "e" not in v.lower():
            return Fraction(v)
    except (ValueError, ZeroDivisionError):
        pass
    raise fm.ConfigError(f"not an exact number (integer, decimal or p/q): {v!r}")


# -- oracle -------------------------------------------------------------------------


def _factor_spec(spec, complex_dim: int) -> tuple:
    """((kind, a, b, conj), var) of a factor, checked but not yet built."""
    spec = _section(spec, "factor", "j zpow var conj")
    kinds = [key for key in ("j", "zpow") if key in spec]
    if len(kinds) != 1:
        raise fm.ConfigError(f"factor needs one of 'j' and 'zpow', got {kinds}")
    kind = kinds[0]
    a, b = (_value(x, int, f"factor {kind}", 0)
            for x in _value(spec[kind], list, f"factor {kind}", 2, 2))
    conj = _value(spec.get("conj", False), bool, "factor conj")
    return (kind, a, b, conj), _value(spec.get("var", 0), int, "factor var", 0,
                                      complex_dim - 1)


def _factor_poly(kind: str, a: int, b: int, conj: bool):
    """J_{a,b} for kind 'j', z^a zbar^b for 'zpow'; conjugated if asked."""
    poly = hermite.complex_hermite(a, b) if kind == "j" else hermite.BiPoly({(a, b): 1})
    return poly.conj() if conj else poly


def _cmd_oracle(args) -> int:
    doc = _section(_read_json(args.expr_file, "expression file"), "expression file",
                   "complex_dim gram terms")
    dim = _value(doc.get("complex_dim", 1), int, "complex_dim", 1, MAX_COMPLEX_DIM)
    if "gram" in doc:
        gram = [[_parse_exact(x) for x in _value(row, list, "gram row", dim, dim)]
                for row in _value(doc["gram"], list, "gram", dim, dim)]
        try:
            fam = GaussianFamily.from_complex_gram(gram)
        except ValueError as exc:  # not Hermitian or not positive semidefinite
            raise fm.ConfigError(f"gram: {exc}")
    else:
        fam = GaussianFamily.complex_standard(dim)
    parsed = []
    for term in _value(doc.get("terms"), list, "terms"):
        term = _section(term, "term", "coeff factors")
        factors = [_factor_spec(f, dim) for f in _value(term.get("factors"), list,
                                                        "term factors")]
        parsed.append((_parse_exact(term.get("coeff", 1)), factors))
    # the declared degrees, so that no polynomial is built past the budget
    for _, factors in parsed:
        degree = sum(a + b for (_, a, b, _), _ in factors)
        if degree > WICK_DEGREE_BUDGET:
            print(f"error: term of Gaussian degree {degree} exceeds the budget "
                  f"{WICK_DEGREE_BUDGET}", file=sys.stderr)
            return EXIT_USAGE
    total = EC(0)
    for coeff, factors in parsed:
        polys = [(_factor_poly(*spec), var) for spec, var in factors]
        total = total + coeff * expect_complex(fam, polys)
    print(total.rational_str())
    return EXIT_OK


# -- experiment ----------------------------------------------------------------------


_CRITERION_FIELDS = {"sigma2": float, "a": float, "b": float, "m": int, "n": int,
                     "total_degree": int, "chi2_variance_is_alpha": bool}


def _criterion_from(crit) -> fm.CriterionSpec:
    crit = _section(crit, "criterion", "case " + " ".join(_CRITERION_FIELDS))
    # sigma2 is required: a missing one reads as None, which _value refuses
    fields = {key: _value(crit.get(key), kind, f"criterion.{key}",
                          0 if kind is int else None)
              for key, kind in _CRITERION_FIELDS.items()
              if key in crit or key == "sigma2"}
    return fm.CriterionSpec(case=crit.get("case"), **fields)


def _kernel_from(doc: dict, base: Path) -> tuple:
    """(m, n, k values, kernel) of the kernel section.  The kernel is None for
    a block, built once per k after the whole config is checked.  A missing
    kernel file raises FileNotFoundError; one that cannot be read (a name too
    long included) or is not UTF-8 is malformed (ConfigError)."""
    kspec = _section(doc.get("kernel"), "kernel", "block file inline scale")
    sources = [key for key in ("block", "file", "inline") if key in kspec]
    if len(sources) != 1:
        raise fm.ConfigError(f"kernel names {sources}; "
                             "give one of block, file and inline")
    if "block" in kspec:
        _section(kspec, "a block kernel", "block")
        blk = _section(kspec["block"], "kernel.block", "m n")
        m, n = (_value(blk.get(key), int, f"kernel.block.{key}", 0) for key in ("m", "n"))
        ks = [_value(k, int, "k_values", 1, MAX_KERNEL_DIM)
              for k in _value(doc.get("k_values", [1]), list, "k_values", 1)]
        if len(set(ks)) != len(ks):
            raise fm.ConfigError(f"k_values repeats a value: {ks}")
        kern = None
    elif "k_values" in doc:
        raise fm.ConfigError(f"k_values applies to a block kernel only; "
                             f"a {sources[0]} kernel is run once")
    else:
        try:
            if "file" in kspec:
                path = base / _value(kspec["file"], str, "kernel.file")  # absolute wins
                if not path.is_file():
                    raise FileNotFoundError(str(path))
                text = path.read_text(encoding="utf-8")
            else:
                text = _value(kspec["inline"], str, "kernel.inline")
            kern = load_kernel(text)
            if "scale" in kspec:
                kern = _parse_exact(kspec["scale"]) * kern
            # the sampler reads the values as floats, which 10**400 overflows
            if not all(cmath.isfinite(_complex(v)) for v in kern.data.values()):
                raise ValueError("a kernel value overflows float")
        except FileNotFoundError:
            raise
        except (OSError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise fm.ConfigError(f"malformed kernel section: {exc}")
        m, n, ks = kern.m, kern.n, [1]
        _value(kern.dim, int, "kernel dimension", hi=MAX_KERNEL_DIM)
    # a chaos of order q >= 2 is what the fourth-moment criteria are about
    _value(m + n, int, "kernel degree m + n", 2, MAX_KERNEL_DEGREE)
    return m, n, ks, kern


def _ks_from(ks_cfg, k_values: list) -> tuple:
    """(k, component, mean, var) of the KS section, checked before any sampling."""
    ks_cfg = _section(ks_cfg, "ks", "k component mean var")
    k_at = _value(ks_cfg.get("k", k_values[-1]), int, "ks.k")
    if k_at not in k_values:
        raise fm.ConfigError(f"ks.k={k_at} is not among the run's k values")
    component = ks_cfg.get("component", "re")
    if component not in ("re", "im"):
        raise fm.ConfigError(f"ks.component must be 're' or 'im', got {component!r}")
    return (k_at, component, _value(ks_cfg.get("mean", 0.0), float, "ks.mean"),
            # the least positive float: the variance must be positive
            _value(ks_cfg.get("var", 1.0), float, "ks.var", math.ulp(0.0)))


def _format_quantity(name: str, value: complex) -> str:
    if name in ("abs2", "abs4"):
        return repr(float(value.real))
    return repr(complex(value))


def run_experiment(doc: dict, base: Path) -> tuple:
    """Execute an experiment config; returns (csv text, verdict dict)."""
    doc = _section(doc, "config", "seed n_samples workers chunk_size criterion kernel "
                                  "k_values ks exact_reference")
    seed = doc.get("seed")
    if seed is None:
        env = os.environ.get("CHAOSLAB_SEED")
        if env is None:
            raise fm.ConfigError("config needs a seed (or CHAOSLAB_SEED)")
        try:
            seed = int(env)
        except ValueError:
            raise fm.ConfigError(f"CHAOSLAB_SEED must be an integer, got {env!r}")
    # the Philox key has 128 bits: seed 2**128 + 1 would draw seed 1's stream
    seed = _value(seed, int, "seed", 0, SEED_LIMIT - 1)
    ks_cfg = doc.get("ks")
    lo, hi = (2, None) if ks_cfg is None else (fm.KS_MIN_SAMPLES, MAX_KS_SAMPLES)
    n_samples = _value(doc.get("n_samples"), int, "n_samples", lo, hi)
    workers = _value(doc.get("workers", 1), int, "workers", 1, MAX_WORKERS)
    chunk = _value(doc.get("chunk_size", fm.DEFAULT_CHUNK), int, "chunk_size", 1)
    spec = _criterion_from(doc.get("criterion"))
    m, n, k_values, kern = _kernel_from(doc, base)
    _value(min(chunk, n_samples) * (max(k_values) if kern is None else kern.dim), int,
           "min(chunk_size, n_samples) x kernel dimension", hi=MAX_CHUNK_CELLS)
    for key, kernel_value in (("m", m), ("n", n), ("total_degree", m + n)):
        value = getattr(spec, key)
        if value is not None and value != kernel_value:
            raise fm.ConfigError(f"criterion {key}={value} does not match the "
                                 f"kernel of bidegree ({m}, {n})")
    if ks_cfg is not None and spec.case.startswith("chi2"):
        raise fm.ConfigError(f"ks tests a normal law; {spec.case} has a chi-square limit")
    ks = None if ks_cfg is None else _ks_from(ks_cfg, k_values)
    exact = _value(doc.get("exact_reference", False), bool, "exact_reference")
    if exact and kern is not None:
        raise fm.ConfigError("exact_reference requires a block kernel")
    kernels = ([(1, kern)] if kern is not None
               else [(k, fm.gen_block_kernel(m, n, k)) for k in k_values])
    references = fm.block_reference_trajectory(m, n, k_values) if exact else None
    values = None if ks is None else numpy.empty(n_samples, complex)
    reports = [(k, fm.estimate(kernel, n_samples, seed, workers=workers, chunk_size=chunk,
                               out=values if ks and k == ks[0] else None))
               for k, kernel in kernels]
    the_verdict = fm.verdict(reports, spec, references)
    result = the_verdict.as_dict()
    result["seed"] = seed
    result["n_samples"] = n_samples

    if ks is not None:
        k_at, component, mean, var = ks
        d, p = fm.ks_distance(fm.collect_component_samples(values, component),
                              fm.normal_cdf(mean, var))
        result["ks"] = {"k": k_at, "component": component, "distance": d, "p_bound": p}

    rows = [["k", "quantity", "estimate", "stderr", "target", "pass"]]
    rows += ([row.k, name, _format_quantity(name, row.estimate), repr(row.stderr),
              _format_quantity(name, row.reference), str(row.passed)]
             for name, q in the_verdict.quantities.items() for row in q.rows)
    return _csv_text(rows), result


def _cmd_experiment(args) -> int:
    if not _out_dir_ok(args.out):
        return EXIT_USAGE
    try:
        csv_text, result = run_experiment(_read_json(args.config, "config file"),
                                          args.config.parent)
    except FileNotFoundError as exc:
        print(f"error: missing kernel file: {exc}", file=sys.stderr)
        return EXIT_NOKERNEL
    args.out.mkdir(parents=True, exist_ok=True)
    _write_text(args.out / "moments.csv", csv_text)
    _write_text(args.out / "verdict.json",
                json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"experiment complete: verdict {'PASS' if result['pass'] else 'FAIL'} "
          f"({args.out / 'verdict.json'})")
    return EXIT_OK


def _out_dir_ok(out: Path) -> bool:
    """Whether ``--out`` names a directory or a path creatable as one: its
    nearest existing ancestor (or itself) must be a directory.  Prints the
    error otherwise."""
    for path in (out, *out.parents):
        if path.exists():
            if path.is_dir():
                return True
            print(f"error: --out {out}: {path} exists and is not a directory",
                  file=sys.stderr)
            return False
    return True


def _csv_text(rows) -> str:
    """The rows as CSV text, each line ended by a bare newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "identities":
            return _cmd_identities(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        return EXIT_USAGE
    except fm.ConfigError as exc:  # malformed config or expression file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:
        return EXIT_FAILURE
    except Exception as exc:  # execution failure, not a verdict
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
