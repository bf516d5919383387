"""Command line entry point: identity suites, the exact oracle, experiments.

Exit codes are a stable contract:

    0   run completed (for experiments: regardless of verdict, which is data)
    1   unexpected execution failure
    2   an exact identity suite failed
    64  bad arguments (including an --out that is not a directory) or a
        degree-budget violation
    65  config or expression file parse error, including a malformed kernel
        section (kernel text, kernel file contents, file name or scale), an
        exact number in exponent notation, a kernel of degree m + n < 2, and
        a value past a MAX_* bound below: kernel degree m + n, kernel
        dimension (block k), workers and the oracle's complex_dim
    66  missing kernel file

A default seed may be supplied via the CHAOSLAB_SEED environment variable;
a seed present in a config always wins.
"""

from __future__ import annotations

import argparse
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
from .tensor import load_kernel
from .wick import GaussianFamily, expect_complex

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_IDENTITY = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_NOKERNEL = 66

# Input bounds, each checked before anything it sizes is built (exit 65).
# J_{m,n}'s float coefficients reach 1e47 at degree m + n = 64 and leave
# double range near 300; the tests run blocks up to degree 5.
MAX_KERNEL_DEGREE = 64
# each sample draws 2 k normals, so one default chunk of 8192 samples at
# k = 1024 already takes about 400 MB; the tests and the benchmark reach 64
MAX_KERNEL_DIM = 1024
# each worker is a thread, started per chunk up to this count; it is
# ThreadPoolExecutor's own default ceiling
MAX_WORKERS = 32
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
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["name", "status", "detail"])
        for r in rows:
            w.writerow([r["name"], r["status"], r["detail"]])
        _write_text(args.out / "identities_report.csv", buf.getvalue())
    for n in range(args.max_degree + 1):
        c2r, r2c = convert.conversion_tables(n)
        for table in (c2r, r2c):
            buf = io.StringIO()
            w = csv.writer(buf, lineterminator="\n")
            for row in convert.table_csv_rows(table):
                w.writerow(row)
            _write_text(args.out / f"table_{table.direction}_n{n}.csv", buf.getvalue())
    # timings vary run to run, so they stay out of the report, whose bytes
    # are reproducible
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


# -- oracle -------------------------------------------------------------------------


def _parse_exact(x) -> ExactComplex:
    """An exact number: an integer, a string, or a [re, im] pair of them."""
    if isinstance(x, list) and len(x) == 2:
        return ExactComplex(_exact_part(x[0]), _exact_part(x[1]))
    return EC(_exact_part(x))


def _exact_part(v) -> Fraction:
    """An integer, or an integer, decimal or p/q string.  Exponent notation
    is refused: Fraction writes out every digit of 1e10000000."""
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str) and "e" not in v.lower():
        return Fraction(v)
    raise ValueError(f"not an exact number (integer, decimal or p/q): {v!r}")


def _factor_spec(spec: dict, complex_dim: int) -> tuple:
    """((kind, a, b, conj), var) of a factor, checked but not yet built."""
    if not isinstance(spec, dict):
        raise ValueError("factor must be an object")
    var = _int_value(spec.get("var", 0), "factor var", 0)
    if var >= complex_dim:
        raise ValueError(f"factor var {var} is out of range for complex_dim {complex_dim}")
    conj = _bool_value(spec.get("conj", False), "factor conj")
    kind = next((key for key in ("j", "zpow") if key in spec), None)
    if kind is None:
        raise ValueError("factor needs a 'j' or 'zpow' field")
    a, b = (_int_value(x, f"factor {kind}", 0) for x in spec[kind])
    return (kind, a, b, conj), var


def _factor_poly(kind: str, a: int, b: int, conj: bool):
    """J_{a,b} for kind 'j', z^a zbar^b for 'zpow'; conjugated if asked."""
    poly = hermite.complex_hermite(a, b) if kind == "j" else hermite.BiPoly({(a, b): 1})
    return poly.conj() if conj else poly


def _cmd_oracle(args) -> int:
    try:
        doc = json.loads(_read_input(args.expr_file, "expression file"))
        if not isinstance(doc, dict) or "terms" not in doc:
            raise ValueError("expression file must be an object with a 'terms' list")
        dim = _int_value(doc.get("complex_dim", 1), "complex_dim", 1)
        if dim > MAX_COMPLEX_DIM:
            raise ValueError(f"complex_dim must be at most {MAX_COMPLEX_DIM}, got {dim}")
        if "gram" in doc:
            gram = [[_parse_exact(x) for x in row] for row in doc["gram"]]
            if len(gram) != dim or any(len(r) != dim for r in gram):
                raise ValueError("gram matrix shape must match complex_dim")
            fam = GaussianFamily.from_complex_gram(gram)
        else:
            fam = GaussianFamily.complex_standard(dim)
        terms = doc["terms"]
        if not isinstance(terms, list) or not all(isinstance(t, dict) for t in terms):
            raise ValueError("terms must be a list of objects")
        parsed = []
        for term in terms:
            coeff = _parse_exact(term.get("coeff", 1))
            factors = [_factor_spec(f, dim) for f in term["factors"]]
            parsed.append((coeff, factors))
    except (ValueError, KeyError, TypeError, json.JSONDecodeError,
            ZeroDivisionError) as exc:
        print(f"error: cannot parse expression file: {exc}", file=sys.stderr)
        return EXIT_PARSE
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


def _read_input(path: Path, what: str) -> str:
    """The text of a config or expression file.  A missing file, a directory
    and a file that is not UTF-8 are malformed input (ConfigError)."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise fm.ConfigError(f"no such {what}: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise fm.ConfigError(f"cannot read {what} {path}: {exc}")


def _load_config(path: Path) -> dict:
    text = _read_input(path, "config file")
    try:
        doc = json.loads(text)
    except ValueError as exc:  # an integer of over 4300 digits included
        raise fm.ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise fm.ConfigError("config must be a JSON object")
    return doc


def _int_value(value, name: str, minimum: int) -> int:
    """An integer field, rejected as a ConfigError when missing, not an
    integer, or below ``minimum``."""
    if value is None:
        raise fm.ConfigError(f"{name} is missing")
    if isinstance(value, bool) or not isinstance(value, int):
        raise fm.ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise fm.ConfigError(f"{name} must be at least {minimum}, got {value}")
    return value


def _bool_value(value, name: str) -> bool:
    """A JSON true or false, rejected as a ConfigError otherwise."""
    if not isinstance(value, bool):
        raise fm.ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _num_value(value, name: str) -> float:
    """A finite config number, rejected as a ConfigError otherwise."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise fm.ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _criterion_from(doc: dict) -> fm.CriterionSpec:
    crit = doc.get("criterion")
    if not isinstance(crit, dict) or "case" not in crit or "sigma2" not in crit:
        raise fm.ConfigError("config needs a criterion object with case and sigma2")
    kwargs = dict(case=crit["case"], sigma2=_num_value(crit["sigma2"], "criterion.sigma2"),
                  a=_num_value(crit.get("a", 0.0), "criterion.a"),
                  b=_num_value(crit.get("b", 0.0), "criterion.b"))
    for key in ("m", "n", "total_degree"):
        if key in crit:
            kwargs[key] = _int_value(crit[key], f"criterion.{key}", 0)
    if "chi2_variance_is_alpha" in crit:
        kwargs["chi2_variance_is_alpha"] = _bool_value(
            crit["chi2_variance_is_alpha"], "criterion.chi2_variance_is_alpha")
    return fm.CriterionSpec(**kwargs)


def _kernels_from(doc: dict, base: Path):
    kspec = doc.get("kernel")
    if not isinstance(kspec, dict):
        raise fm.ConfigError("config needs a kernel object")
    sources = [key for key in ("block", "file", "inline") if key in kspec]
    if len(sources) > 1:
        raise fm.ConfigError(f"kernel names {' and '.join(sources)}; "
                             "give one of block, file and inline")
    if "block" in kspec:
        blk = kspec["block"]
        if not isinstance(blk, dict):
            raise fm.ConfigError("kernel.block must be an object with m and n")
        m = _int_value(blk.get("m"), "kernel.block.m", 0)
        n = _int_value(blk.get("n"), "kernel.block.n", 0)
        ks = doc.get("k_values", [1])
        if not isinstance(ks, list) or not ks:
            raise fm.ConfigError("k_values must be a non-empty list")
        ks = [_int_value(k, "k_values", 1) for k in ks]
        if len(set(ks)) != len(ks):
            raise fm.ConfigError(f"k_values repeats a value: {ks}")
        for k in ks:
            _check_kernel_size(m + n, k)
        return [(k, fm.gen_block_kernel(m, n, k)) for k in ks], (m, n)
    if sources and "k_values" in doc:
        raise fm.ConfigError(f"k_values applies to a block kernel only; "
                             f"a {sources[0]} kernel is run once")
    try:
        if "file" in kspec:
            if not isinstance(kspec["file"], str):
                raise ValueError(f"kernel.file must be a string, got {kspec['file']!r}")
            path = Path(kspec["file"])
            if not path.is_absolute():
                path = base / path
            if not path.is_file():
                raise FileNotFoundError(str(path))
            text = path.read_text()
        elif "inline" in kspec:
            text = kspec["inline"]
            if not isinstance(text, str):
                raise ValueError(f"kernel.inline must be a string, got {text!r}")
        else:
            raise ValueError("kernel must have a block, file or inline field")
        kern = load_kernel(text)
        if "scale" in kspec:
            kern = _parse_exact(kspec["scale"]) * kern
    except (ValueError, ZeroDivisionError) as exc:  # a file that is not UTF-8 included
        raise fm.ConfigError(f"malformed kernel section: {exc}")
    _check_kernel_size(kern.m + kern.n, kern.dim)
    return [(1, kern)], (kern.m, kern.n)


def _check_kernel_size(degree: int, dim: int) -> None:
    # a chaos of order q >= 2 is what the fourth-moment criteria are about
    if degree < 2:
        raise fm.ConfigError(f"kernel degree m + n must be at least 2, got {degree}")
    if degree > MAX_KERNEL_DEGREE:
        raise fm.ConfigError(f"kernel degree m + n must be at most {MAX_KERNEL_DEGREE}, "
                             f"got {degree}")
    if dim > MAX_KERNEL_DIM:
        raise fm.ConfigError(f"kernel dimension (block k) must be at most "
                             f"{MAX_KERNEL_DIM}, got {dim}")


def _ks_from(ks_cfg, k_values: list, n_samples: int) -> tuple:
    """(k, component, mean, var) of the KS section, checked before any sampling."""
    if not isinstance(ks_cfg, dict):
        raise fm.ConfigError("ks must be an object")
    if n_samples < fm.KS_MIN_SAMPLES:
        raise fm.ConfigError(f"the ks section needs n_samples >= {fm.KS_MIN_SAMPLES}, "
                             f"got {n_samples}")
    k_at = _int_value(ks_cfg.get("k", k_values[-1]), "ks.k", 1)
    if k_at not in k_values:
        raise fm.ConfigError(f"ks.k={k_at} is not among the run's k values")
    component = ks_cfg.get("component", "re")
    if component not in ("re", "im"):
        raise fm.ConfigError(f"ks.component must be 're' or 'im', got {component!r}")
    mean = _num_value(ks_cfg.get("mean", 0.0), "ks.mean")
    var = _num_value(ks_cfg.get("var", 1.0), "ks.var")
    if var <= 0:
        raise fm.ConfigError(f"ks.var must be positive, got {var}")
    return k_at, component, mean, var


def _format_quantity(name: str, value: complex) -> str:
    if name in ("abs2", "abs4"):
        return repr(float(value.real))
    return repr(complex(value))


def run_experiment(doc: dict, base: Path) -> tuple:
    """Execute an experiment config; returns (csv text, verdict dict)."""
    seed = doc.get("seed")
    if seed is None:
        env = os.environ.get("CHAOSLAB_SEED")
        if env is None:
            raise fm.ConfigError("config needs a seed (or CHAOSLAB_SEED)")
        try:
            seed = int(env)
        except ValueError:
            raise fm.ConfigError(f"CHAOSLAB_SEED must be an integer, got {env!r}")
    seed = _int_value(seed, "seed", 0)
    if seed >= SEED_LIMIT:
        raise fm.ConfigError(f"seed must be below 2**128, the Philox key size, got {seed}")
    n_samples = _int_value(doc.get("n_samples"), "n_samples", 2)
    workers = _int_value(doc.get("workers", 1), "workers", 1)
    if workers > MAX_WORKERS:
        raise fm.ConfigError(f"workers must be at most {MAX_WORKERS}, got {workers}")
    chunk = _int_value(doc.get("chunk_size", fm.DEFAULT_CHUNK), "chunk_size", 1)
    spec = _criterion_from(doc)
    kernels, (m, n) = _kernels_from(doc, base)
    for key, kernel_value in (("m", m), ("n", n), ("total_degree", m + n)):
        value = getattr(spec, key)
        if value is not None and value != kernel_value:
            raise fm.ConfigError(f"criterion {key}={value} does not match the "
                                 f"kernel of bidegree ({m}, {n})")
    ks = None if doc.get("ks") is None else _ks_from(
        doc["ks"], [k for k, _ in kernels], n_samples)
    references = None
    if _bool_value(doc.get("exact_reference", False), "exact_reference"):
        if "block" not in doc.get("kernel", {}):
            raise fm.ConfigError("exact_reference requires a block kernel")
        references = fm.block_reference_trajectory(m, n, [k for k, _ in kernels])
    reports = [(k, fm.estimate(kern, n_samples, seed, workers=workers,
                               chunk_size=chunk))
               for k, kern in kernels]
    the_verdict = fm.verdict(reports, spec, references)
    result = the_verdict.as_dict()
    result["seed"] = seed
    result["n_samples"] = n_samples

    if ks is not None:
        k_at, component, mean, var = ks
        samples = fm.collect_component_samples(dict(kernels)[k_at], n_samples, seed,
                                               component=component, chunk_size=chunk,
                                               workers=workers)
        d, p = fm.ks_distance(samples, fm.normal_cdf(mean, var))
        result["ks"] = {"k": k_at, "component": component, "distance": d, "p_bound": p}

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["k", "quantity", "estimate", "stderr", "target", "pass"])
    for name, q in the_verdict.quantities.items():
        for row in q.rows:
            w.writerow([row.k, name, _format_quantity(name, row.estimate),
                        repr(row.stderr), _format_quantity(name, row.reference),
                        str(row.passed)])
    return buf.getvalue(), result


def _cmd_experiment(args) -> int:
    if not _out_dir_ok(args.out):
        return EXIT_USAGE
    try:
        doc = _load_config(args.config)
        csv_text, result = run_experiment(doc, args.config.parent)
    except fm.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
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
    except BrokenPipeError:
        return EXIT_FAILURE
    except Exception as exc:  # execution failure, not a verdict
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
