"""CLI contract: subcommands, exit codes, reproducible outputs."""

import copy
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chaoslab import cli, hermite, identities
from chaoslab.exact import EC
from chaoslab.hermite import BiPoly
from chaoslab.tensor import ComplexKernel, dump_kernel


def run_cli(*argv):
    return cli.main(list(argv))


def _unreadable_input(tmp_path, kind):
    """An input path that names a directory, a file that is not UTF-8, one
    holding an integer too long for json to read or one nested too deep."""
    if kind == "directory":
        path = tmp_path / "adir"
        path.mkdir()
    elif kind == "long-integer":
        path = tmp_path / "long.json"
        path.write_text('{"seed": ' + "1" * 5000 + "}")
    elif kind == "deep-nesting":
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
    else:
        path = tmp_path / "latin1.json"
        path.write_bytes('{"seed": 7, "note": "caf\u00e9"}'.encode("latin-1"))
    return path


class TestIdentities:
    def test_passing_run(self, tmp_path, capsys):
        assert run_cli("identities", "--max-degree", "3", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 10 and "FAIL" not in out
        report = (tmp_path / "identities_report.csv").read_text()
        assert "conversion-roundtrip,pass" in report
        assert (tmp_path / "table_complex_to_real_n2.csv").exists()
        assert (tmp_path / "table_real_to_complex_n3.csv").exists()

    def test_json_format(self, tmp_path):
        assert run_cli("identities", "--max-degree", "2", "--out", str(tmp_path),
                       "--format", "json") == 0
        doc = json.loads((tmp_path / "identities_report.json").read_text())
        assert all(r["status"] == "pass" for r in doc["results"])

    def test_degree_budget(self, tmp_path):
        assert run_cli("identities", "--max-degree", "9", "--out", str(tmp_path)) == 64

    def test_bad_arguments(self, tmp_path):
        assert run_cli("identities", "--out", str(tmp_path)) == 64
        assert run_cli("frobnicate") == 64

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_manifest_times_every_suite_outside_the_report(self, tmp_path, monkeypatch, fmt):
        # a clock whose steps grow, so every suite and every run reads a new time
        ticks = iter(range(10 ** 6))
        monkeypatch.setattr(identities.time, "perf_counter", lambda: next(ticks) ** 2 / 64)
        reports = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert run_cli("identities", "--max-degree", "1", "--out", str(out),
                           "--format", fmt) == 0
            manifest = json.loads((out / "identities_manifest.json").read_text())
            assert manifest["max_degree"] == 1
            assert set(manifest["versions"]) == {"chaoslab", "numpy", "scipy"}
            want = [r.name for r in identities.run_identity_suites(0)]
            assert [s["name"] for s in manifest["suites"]] == want
            assert all(s["seconds"] >= 0 for s in manifest["suites"])
            reports.append((manifest["suites"],
                            (out / f"identities_report.{fmt}").read_bytes()))
        # the two runs were timed differently, yet wrote the same report
        assert reports[0][0] != reports[1][0]
        assert reports[0][1] == reports[1][1]
        assert b"second" not in reports[0][1]

    def test_out_naming_a_file_exits_64(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep me")
        for out in (taken, taken / "sub"):
            assert run_cli("identities", "--max-degree", "1", "--out", str(out)) == 64
            assert "not a directory" in capsys.readouterr().err
        assert taken.read_text() == "keep me"

    def test_tampered_coefficient_fails_with_name(self, tmp_path, capsys,
                                                  monkeypatch):
        real = hermite.complex_hermite

        def tampered(idx, n=None, rho=Fraction(2)):
            p = real(idx, n, rho)
            if isinstance(idx, int) and (idx, n) == (2, 1):
                return p + BiPoly({(1, 0): 1})  # corrupt one coefficient
            return p

        monkeypatch.setattr("chaoslab.hermite.complex_hermite", tampered)
        code = run_cli("identities", "--max-degree", "3", "--out", str(tmp_path))
        assert code == 2
        captured = capsys.readouterr()
        assert "identity suite failed" in captured.err
        report = (tmp_path / "identities_report.csv").read_text()
        assert ",fail," in report


class TestOracle:
    def test_fourth_absolute_moment(self, tmp_path, capsys):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(
            {"complex_dim": 1,
             "terms": [{"coeff": "1", "factors": [{"zpow": [2, 2], "var": 0}]}]}))
        assert run_cli("oracle", str(path)) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_centered_chaos_vanishes(self, tmp_path, capsys):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(
            {"terms": [{"factors": [{"j": [1, 1], "var": 0}]}]}))
        assert run_cli("oracle", str(path)) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_conjugated_factor_and_coefficients(self, tmp_path, capsys):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(
            {"terms": [{"coeff": ["1/2", "0"],
                        "factors": [{"j": [1, 2], "var": 0},
                                    {"j": [1, 2], "var": 0, "conj": True}]}]}))
        assert run_cli("oracle", str(path)) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_gram_matrix_input(self, tmp_path, capsys):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(
            {"complex_dim": 2,
             "gram": [["2", "0"], ["0", "2"]],
             "terms": [{"factors": [{"zpow": [1, 0], "var": 0},
                                    {"zpow": [0, 1], "var": 1}]}]}))
        assert run_cli("oracle", str(path)) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_non_integer_gram_output_is_pinned(self, tmp_path, capsys):
        # the gram's real covariance has entries 3/4, 1/6 and 1/8, so the pairing
        # sums run on 24 times it in ints; the three terms share one family
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(
            {"complex_dim": 2,
             "gram": [["3/2", ["1/3", "1/4"]], [["1/3", "-1/4"], "2"]],
             "terms": [{"coeff": ["1/2", "1/3"],
                        "factors": [{"zpow": [2, 1], "var": 0},
                                    {"zpow": [1, 2], "var": 1}]},
                       {"coeff": "3",
                        "factors": [{"j": [1, 1], "var": 0},
                                    {"j": [1, 1], "var": 1, "conj": True}]},
                       {"factors": [{"j": [2, 1], "var": 0},
                                    {"j": [1, 2], "var": 1}]}]}))
        assert run_cli("oracle", str(path)) == 0
        assert capsys.readouterr().out == "1439/864 + 15563/5184*i\n"

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "expr.json"
        path.write_text("{not json")
        assert run_cli("oracle", str(path)) == 65

    def test_missing_file(self, tmp_path):
        assert run_cli("oracle", str(tmp_path / "nope.json")) == 65

    @pytest.mark.parametrize("kind", ["directory", "not-utf8", "long-integer",
                                      "deep-nesting"])
    def test_unreadable_file_exits_65(self, tmp_path, kind):
        assert run_cli("oracle", str(_unreadable_input(tmp_path, kind))) == 65

    def test_degree_budget_violation(self, tmp_path):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(
            {"terms": [{"factors": [{"zpow": [9, 9], "var": 0}]}]}))
        assert run_cli("oracle", str(path)) == 64

    def test_degree_budget_checked_before_any_polynomial_is_built(self, tmp_path,
                                                                  monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("built a polynomial past the degree budget")

        monkeypatch.setattr(cli.hermite, "complex_hermite", no_build)
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(
            {"terms": [{"factors": [{"j": [1, 1]}, {"j": [5000, 5000]}]}]}))
        assert run_cli("oracle", str(path)) == 64

    @pytest.mark.parametrize("doc", [
        {"terms": [{"factors": [{"zpow": [2, 0]}, {"zpow": [2, 0], "conj": "false"}]}]},
        {"terms": [{"factors": [{"j": [1.9, 1]}, {"j": [1, 1]}]}]},
        {"terms": [{"factors": [{"j": ["1", 1]}, {"j": [1, 1]}]}]},
        {"terms": [{"factors": [{"zpow": [1, 1.0]}]}]},
        {"terms": [{"factors": [{"zpow": [1, 1], "var": True}]}]},
        {"complex_dim": 1.5, "terms": [{"factors": [{"zpow": [1, 1]}]}]},
        {"terms": [5]},
        {"terms": "ab"},
        {"terms": [{"factors": [{"zpow": [1, 1], "var": 3}]}]},
        {"terms": [{"coeff": "1e100", "factors": [{"zpow": [1, 1]}]}]},
        {"terms": [{"coeff": ["1", "2E-3"], "factors": [{"zpow": [1, 1]}]}]},
        {"gram": [["2e0"]], "terms": [{"factors": [{"zpow": [1, 1]}]}]},
        {"complex_dim": cli.MAX_COMPLEX_DIM + 1,
         "terms": [{"factors": [{"zpow": [1, 1]}]}]},
        {"complex_dim": 1, "grm": [["2"]], "terms": [{"factors": [{"zpow": [1, 1]}]}]},
        {"terms": [{"cofe": 5, "factors": [{"zpow": [1, 1]}]}]},
        {"terms": [{"factors": [{"zpow": [1, 1], "cnj": True}]}]},
        {"terms": [{"factors": [{"j": [1, 1], "zpow": [1, 1]}]}]},
    ], ids=["conj-string", "j-fraction", "j-string", "zpow-float", "var-boolean",
            "complex_dim-fraction", "term-not-object", "terms-string",
            "var-out-of-range", "coeff-exponent", "coeff-pair-exponent",
            "gram-exponent", "complex_dim-over-cap", "unknown-expression-key",
            "unknown-term-key", "unknown-factor-key", "factor-j-and-zpow"])
    def test_malformed_fields_exit_65(self, tmp_path, doc):
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(doc))
        assert run_cli("oracle", str(path)) == 65


BASE_CONFIG = {
    "seed": 7,
    "n_samples": 4000,
    "kernel": {"block": {"m": 1, "n": 2}},
    "k_values": [2, 4],
    "criterion": {"case": "gaussian-offdiag", "sigma2": 2.0, "m": 1, "n": 2},
    "exact_reference": True,
}


class TestExperiment:
    def test_block_run_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(BASE_CONFIG))
        out = tmp_path / "out"
        assert run_cli("experiment", str(cfg), "--out", str(out)) == 0
        lines = (out / "moments.csv").read_text().splitlines()
        assert lines[0] == "k,quantity,estimate,stderr,target,pass"
        assert len(lines) == 1 + 3 * 2  # three quantities, two k values
        doc = json.loads((out / "verdict.json").read_text())
        assert doc["case"] == "gaussian-offdiag"
        assert set(doc["quantities"]) == {"abs2", "sq", "abs4"}
        assert doc["seed"] == 7

    def test_byte_identical_across_worker_counts(self, tmp_path):
        outs = []
        for workers in (1, 3):
            cfg = tmp_path / f"cfg{workers}.json"
            cfg.write_text(json.dumps({**BASE_CONFIG, "workers": workers,
                                       "chunk_size": 1000,
                                       "ks": {"k": 4, "component": "im"}}))
            out = tmp_path / f"out{workers}"
            assert run_cli("experiment", str(cfg), "--out", str(out)) == 0
            outs.append(((out / "moments.csv").read_bytes(),
                         (out / "verdict.json").read_bytes()))
        assert outs[0] == outs[1]

    def test_exit_zero_even_when_verdict_fails(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        bad = dict(BASE_CONFIG)
        bad["criterion"] = {"case": "gaussian-offdiag", "sigma2": 40.0, "m": 1, "n": 2}
        bad.pop("exact_reference")
        cfg.write_text(json.dumps(bad))
        out = tmp_path / "out"
        assert run_cli("experiment", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "verdict.json").read_text())
        assert doc["pass"] is False

    def test_odd_chi2_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            **BASE_CONFIG,
            "criterion": {"case": "chi2-offdiag", "sigma2": 2.0, "m": 1, "n": 2}}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 65

    def test_missing_kernel_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 1, "n_samples": 200,
            "kernel": {"file": "missing_kernel.txt"},
            "criterion": {"case": "gaussian-offdiag", "sigma2": 1.0}}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 66

    def test_kernel_path_to_a_directory_exits_66(self, tmp_path):
        (tmp_path / "kernels").mkdir()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 1, "n_samples": 200, "kernel": {"file": "kernels"},
            "criterion": {"case": "gaussian-offdiag", "sigma2": 1.0}}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 66

    def test_kernel_file_route(self, tmp_path):
        kern = ComplexKernel(1, 1, 2, {((0,), (0,)): EC(1), ((1,), (1,)): EC(1)})
        kpath = tmp_path / "kern.txt"
        kpath.write_text(dump_kernel(kern))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 3, "n_samples": 2000,
            "kernel": {"file": "kern.txt", "scale": "1/2"},
            "criterion": {"case": "gaussian-diag", "sigma2": 1.0, "a": 1.0, "b": 0.0,
                          "m": 1, "n": 1}}))
        out = tmp_path / "o"
        assert run_cli("experiment", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "verdict.json").read_text())
        assert doc["case"] == "gaussian-degenerate"

    def test_ks_section(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            **BASE_CONFIG, "n_samples": 2000,
            "ks": {"k": 4, "component": "re", "mean": 0, "var": 1}}))
        out = tmp_path / "o"
        assert run_cli("experiment", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "verdict.json").read_text())
        assert "ks" in doc and doc["ks"]["k"] == 4

    def test_ks_section_draws_each_sample_once(self, tmp_path, monkeypatch):
        drawn = []
        sample_batch = cli.fm.sample_batch

        def counting(*args, **kwargs):
            batch = sample_batch(*args, **kwargs)
            drawn.append(batch.xi.size + batch.eta.size)
            return batch

        monkeypatch.setattr(cli.fm, "sample_batch", counting)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BASE_CONFIG, "n_samples": 1000, "chunk_size": 300,
                                   "workers": 2, "ks": {"k": 2, "component": "im"}}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 0
        # 2 k normals per sample at each k of the run, none again for the KS
        assert sum(drawn) == sum(2 * k * 1000 for k in BASE_CONFIG["k_values"])

    def test_config_parse_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{bad json")
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 65

    def test_missing_config(self, tmp_path):
        assert run_cli("experiment", str(tmp_path / "none.json"),
                       "--out", str(tmp_path / "o")) == 65

    @pytest.mark.parametrize("kind", ["directory", "not-utf8", "long-integer",
                                      "deep-nesting"])
    def test_unreadable_config_exits_65(self, tmp_path, kind):
        assert run_cli("experiment", str(_unreadable_input(tmp_path, kind)),
                       "--out", str(tmp_path / "o")) == 65

    def test_seed_required_but_env_fallback(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        body = {k: v for k, v in BASE_CONFIG.items() if k != "seed"}
        cfg.write_text(json.dumps(body))
        monkeypatch.delenv("CHAOSLAB_SEED", raising=False)
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o1")) == 65
        monkeypatch.setenv("CHAOSLAB_SEED", "7")
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o2")) == 0
        doc = json.loads((tmp_path / "o2" / "verdict.json").read_text())
        assert doc["seed"] == 7

    def test_config_seed_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHAOSLAB_SEED", "99")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(BASE_CONFIG))
        out = tmp_path / "o"
        assert run_cli("experiment", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "verdict.json").read_text())
        assert doc["seed"] == 7

    @pytest.mark.parametrize("change", [
        {"chunk_size": 0},
        {"n_samples": "abc"},
        {"kernel": {"block": {"m": 1}}},
        {"workers": 0},
        {"workers": -3},
        {"k_values": [1.5]},
        {"criterion": {**BASE_CONFIG["criterion"], "m": "abc"}},
        {"criterion": {**BASE_CONFIG["criterion"], "sigma2": "abc"}},
        {"seed": "abc"},
        {"ks": {"k": "abc"}},
        {"kernel": {"block": {"m": 1, "n": 0}}, "criterion": {
            "case": "gaussian-offdiag", "sigma2": 1.0}},
        {"exact_reference": "no"},
        {"criterion": {**BASE_CONFIG["criterion"], "chi2_variance_is_alpha": "no"}},
        {"criterion": {**BASE_CONFIG["criterion"], "sigma2": 10 ** 400}},
        {"exact_refrence": True},
        {"criterion": {**BASE_CONFIG["criterion"], "sigma": 2.0}},
        {"kernel": {"block": {"m": 1, "n": 2}, "dim": 4}},
        {"kernel": {"block": {"m": 1, "n": 2}, "scale": "2"}},
        {"kernel": {"block": {"m": 1, "n": 2, "k": 4}}},
        {"ks": {"k": 4, "comp": "im"}},
        {"criterion": {**BASE_CONFIG["criterion"], "sigma2": 1e200}},
        {"kernel": {"block": {"m": 1, "n": 1}}, "criterion": {
            "case": "chi2-offdiag", "sigma2": 1e200, "m": 1, "n": 1}},
        {"kernel": {"block": {"m": 1, "n": 1}}, "criterion": {
            "case": "chi2-offdiag", "sigma2": 5e153, "m": 1, "n": 1,
            "chi2_variance_is_alpha": False}},
        {"kernel": {"block": {"m": 1, "n": 1}}, "criterion": {
            "case": "chi2-diag", "sigma2": 2.0, "a": 1.0, "m": 1, "n": 1}},
    ], ids=["chunk_size-0", "n_samples-abc", "block-missing-n", "workers-0",
            "workers-negative", "k_values-fraction", "criterion-m-abc",
            "sigma2-abc", "seed-abc", "ks-k-abc", "block-degree-1",
            "exact_reference-string", "chi2_variance_is_alpha-string",
            "sigma2-10**400", "unknown-top-level-key", "unknown-criterion-key",
            "unknown-kernel-key", "scale-beside-block", "unknown-block-key",
            "unknown-ks-key", "sigma2-1e200", "chi2-sigma2-1e200",
            "chi2-plain-law-overflow", "chi2-a-1"])
    def test_bad_integer_fields_exit_65(self, tmp_path, capsys, change):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BASE_CONFIG, **change}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 65
        assert not (tmp_path / "o").exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("kernel, file_text", [
        ({"inline": "garbage"}, None),
        ({"inline": "1 1 1\n0 5 1 0"}, None),
        ({"inline": 5}, None),
        ({"file": "kern.txt"}, b"garbage"),
        ({"file": "kern.txt"}, b"\xff\xfe1 1 1"),
        ({"file": 5}, None),
        ({"inline": "1 1 1\n0 0 1 0", "scale": "abc"}, None),
        ({"inline": "1 1 1\n0 0 1 0", "scale": 0.5}, None),
        ({"inline": "1 1 1\n0 0 nan 0"}, None),
        ({"file": "kern.txt"}, b"1 1 1\n0 0 1 1e999\n"),
        ({"inline": "1 1 1\n0 0 1 0", "scale": "1e100"}, None),
        ({"file": "k" * 5000}, None),
        ({"inline": "1 1 1\n0 0 1 0\n", "scale": "1" + "0" * 400}, None),
        ({"inline": "1 1 1\n0 0 1 0\n", "scale": 10 ** 100}, None),
        ({"inline": "1 1 1\n0 0 1 0\n", "scale": 10 ** 200}, None),
        ({"inline": "1 1 1\n0 0 1e300 0\n"}, None),
        ({"inline": "1 1 1\n0 0 1 0\n0 0 3 0\n"}, None),
    ], ids=["inline-garbage", "inline-index-out-of-range", "inline-number",
            "file-garbage", "file-not-utf8", "file-number", "scale-string",
            "scale-float", "inline-nan", "file-overflow", "scale-exponent",
            "file-name-too-long", "scale-overflows-float", "scale-10**100",
            "scale-10**200", "inline-1e300", "inline-repeated-entry"])
    def test_malformed_kernel_section_exit_65(self, tmp_path, kernel, file_text):
        if file_text is not None:
            (tmp_path / kernel["file"]).write_bytes(file_text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 1, "n_samples": 200, "kernel": kernel,
            "criterion": {"case": "gaussian-offdiag", "sigma2": 1.0}}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 65
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kernel", [
        {"inline": "1 1 1\n0 0 1e300 0\n"},
        {"inline": "1 1 1\n0 0 1 0\n", "scale": 10 ** 100},
    ], ids=["inline-1e300", "scale-10**100"])
    def test_overflow_prints_only_the_error_line(self, tmp_path, kernel, workers):
        # a separate process, so that numpy's warnings reach stderr as they
        # would for a user, from the pool's threads as well
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 1, "n_samples": 200, "kernel": kernel, "workers": workers,
            "criterion": {"case": "gaussian-offdiag", "sigma2": 1.0}}))
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "chaoslab.cli", "experiment", str(cfg),
             "--out", str(tmp_path / "o")], capture_output=True, text=True, env=env)
        assert proc.returncode == 65
        assert proc.stderr.splitlines() == [
            "error: the moments overflow float: the kernel values are too large"]

    @pytest.mark.parametrize("criterion", [
        {"case": "multichaos", "sigma2": 2.0, "total_degree": 2},
        {"case": "gaussian-offdiag", "sigma2": 2.0, "m": 2, "n": 1},
    ], ids=["total_degree", "bidegree"])
    def test_kernel_degree_must_match_criterion(self, tmp_path, criterion):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BASE_CONFIG, "n_samples": 200,
                                   "criterion": criterion}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 65
        assert not (tmp_path / "o").exists()

    def test_degree_five_block_has_exact_references(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 2, "n_samples": 200, "kernel": {"block": {"m": 3, "n": 2}},
            "k_values": [1], "exact_reference": True,
            "criterion": {"case": "gaussian-offdiag", "sigma2": 12.0, "m": 3, "n": 2}}))
        out = tmp_path / "o"
        assert run_cli("experiment", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "verdict.json").read_text())
        assert doc["quantities"]["abs2"]["rows"][0]["reference"] == [12.0, 0.0]

    def test_degree_twenty_block_has_exact_references(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 2, "n_samples": 200, "kernel": {"block": {"m": 10, "n": 10}},
            "k_values": [1, 4], "exact_reference": True,
            "criterion": {"case": "gaussian-diag", "sigma2": 13168189440000.0,
                          "a": 1.0, "b": 0.0, "m": 10, "n": 10}}))
        out = tmp_path / "o"
        assert run_cli("experiment", str(cfg), "--out", str(out)) == 0
        doc = json.loads((out / "verdict.json").read_text())
        # (10!)^2, by the isometry, at each k
        assert ([row["reference"] for row in doc["quantities"]["abs2"]["rows"]]
                == [[13168189440000.0, 0.0]] * 2)

    def test_ks_with_too_few_samples_rejected_before_sampling(self, tmp_path, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(cli.fm, "estimate", no_sampling)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BASE_CONFIG, "n_samples": 99, "ks": {"k": 4}}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 65
        assert not (tmp_path / "o").exists()

    def test_multivariate_rejected_before_sampling(self, tmp_path, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(cli.fm, "estimate", no_sampling)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BASE_CONFIG, "criterion": {
            "case": "multivariate", "sigma2": 1.0, "degrees": [1, 3]}}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 65
        assert not (tmp_path / "o").exists()


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampled before the config was checked")


class TestExperimentConfigChecks:
    """Configs that are rejected with exit 65 before any sampling."""

    @pytest.mark.parametrize("seed", [2 ** 128, 2 ** 128 + 1], ids=["2**128", "2**128+1"])
    def test_seed_beyond_the_philox_key_exits_65(self, tmp_path, monkeypatch, seed):
        # 2**128 + 1 would draw exactly seed 1's stream
        monkeypatch.setattr(cli.fm, "estimate", _no_sampling)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BASE_CONFIG, "seed": seed}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 65
        assert not (tmp_path / "o").exists()

    def test_env_seed_beyond_the_philox_key_exits_65(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.fm, "estimate", _no_sampling)
        monkeypatch.setenv("CHAOSLAB_SEED", str(2 ** 128 + 1))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: v for k, v in BASE_CONFIG.items() if k != "seed"}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 65
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("names", [("block", "file"), ("block", "inline"),
                                       ("file", "inline"), ("block", "file", "inline")],
                             ids=["block-file", "block-inline", "file-inline", "all-three"])
    def test_kernel_section_naming_two_sources_exits_65(self, tmp_path, monkeypatch, names):
        monkeypatch.setattr(cli.fm, "estimate", _no_sampling)
        kern = ComplexKernel(1, 2, 1, {((0,), (0, 0)): EC(1)})
        (tmp_path / "kern.txt").write_text(dump_kernel(kern))
        sources = {"block": {"m": 1, "n": 2}, "file": "kern.txt",
                   "inline": dump_kernel(kern)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BASE_CONFIG, "exact_reference": False,
                                   "kernel": {name: sources[name] for name in names}}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 65
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc", [
        {**BASE_CONFIG, "kernel": {"block": {"m": 2 ** 128, "n": 0}}},
        {**BASE_CONFIG, "kernel": {"block": {"m": cli.MAX_KERNEL_DEGREE, "n": 1}}},
        {**BASE_CONFIG, "k_values": [10 ** 40]},
        {**BASE_CONFIG, "k_values": [4, cli.MAX_KERNEL_DIM + 1]},
        {"seed": 1, "n_samples": 200, "kernel": {"inline": f"1 1 {cli.MAX_KERNEL_DIM + 1}"},
         "criterion": {"case": "gaussian-offdiag", "sigma2": 1.0}},
        {**BASE_CONFIG, "workers": cli.MAX_WORKERS + 1},
        {**BASE_CONFIG, "workers": 10 ** 40},
        {**BASE_CONFIG, "n_samples": cli.MAX_KS_SAMPLES + 1, "ks": {}},
        {**BASE_CONFIG, "n_samples": 2 ** 128, "ks": {}},
        # chunk_size had no bound: 10**12 samples at k = 64 failed allocating
        # 931 TiB and exited 1
        {**BASE_CONFIG, "n_samples": 10 ** 12, "chunk_size": 10 ** 12, "k_values": [64]},
        {**BASE_CONFIG, "n_samples": 10 ** 6, "chunk_size": 8193,
         "k_values": [4, cli.MAX_KERNEL_DIM]},
        {"seed": 1, "n_samples": 10 ** 6, "chunk_size": 10 ** 6,
         "kernel": {"inline": "1 1 16\n0 0 1 0\n"},
         "criterion": {"case": "gaussian-diag", "sigma2": 1.0, "a": 1.0}},
    ], ids=["degree-2**128", "degree-over-cap", "k-10**40", "k-over-cap",
            "inline-dim-over-cap", "workers-over-cap", "workers-10**40",
            "ks-n_samples-over-cap", "ks-n_samples-2**128", "chunk-10**12-k-64",
            "chunk-8193-k-1024", "inline-chunk-10**6-dim-16"])
    def test_values_past_a_bound_exit_65_before_any_kernel(self, tmp_path, monkeypatch,
                                                           capsys, doc):
        for name in ("gen_block_kernel", "block_reference_trajectory", "estimate"):
            monkeypatch.setattr(cli.fm, name, _no_sampling)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 65
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_a_large_chunk_size_over_few_samples_still_runs(self, tmp_path):
        # the bound is on the chunk that runs, min(chunk_size, n_samples)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BASE_CONFIG, "n_samples": 300, "k_values": [64],
                                   "chunk_size": 10 ** 12, "exact_reference": False}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 0
        assert (tmp_path / "o" / "verdict.json").exists()

    def test_repeated_k_values_exit_65(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.fm, "estimate", _no_sampling)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BASE_CONFIG, "k_values": [1, 1]}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 65
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["file", "inline"])
    def test_k_values_with_a_file_or_inline_kernel_exit_65(self, tmp_path, monkeypatch,
                                                           capsys, source):
        # such a kernel runs once; k_values used to be dropped without a word
        monkeypatch.setattr(cli.fm, "estimate", _no_sampling)
        text = "1 1 1\n0 0 1 0\n"
        (tmp_path / "kern.txt").write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 1, "n_samples": 200, "k_values": [1, 4, 16],
            "kernel": {source: "kern.txt" if source == "file" else text},
            "criterion": {"case": "gaussian-diag", "sigma2": 1.0, "a": 1.0}}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 65
        assert "k_values" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kernel", [
        {"inline": "0 0 1\n1 0\n"}, {"inline": "1 0 1\n0 1 0\n"},
        {"block": {"m": 1, "n": 0}}, {"block": {"m": 0, "n": 0}},
    ], ids=["inline-degree-0", "inline-degree-1", "block-degree-1", "block-degree-0"])
    def test_kernel_below_degree_2_exits_65(self, tmp_path, monkeypatch, capsys, kernel):
        # no chaos of order q >= 2; such a kernel used to run to a verdict
        monkeypatch.setattr(cli.fm, "estimate", _no_sampling)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 1, "n_samples": 200, "kernel": kernel,
            "criterion": {"case": "gaussian-diag", "sigma2": 1.0, "a": 1.0}}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 65
        assert "at least 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case, kernel", [
        ("chi2-diag", {"inline": "1 1 1\n0 0 1 0\n"}),
        ("chi2-offdiag", {"block": {"m": 1, "n": 1}}),
    ], ids=["chi2-diag-inline", "chi2-offdiag-block"])
    def test_ks_section_beside_a_chi2_case_exits_65(self, tmp_path, monkeypatch, capsys,
                                                     case, kernel):
        # the ks law is N(mean, var), not the case's chi-square limit
        monkeypatch.setattr(cli.fm, "estimate", _no_sampling)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 1, "n_samples": 200, "kernel": kernel,
            "criterion": {"case": case, "sigma2": 2.0, "m": 1, "n": 1},
            "ks": {"component": "re"}}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 65
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "chi-square" in err
        assert not (tmp_path / "o").exists()

    def test_out_naming_a_file_exits_64(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.fm, "estimate", _no_sampling)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(BASE_CONFIG))
        taken = tmp_path / "taken"
        taken.write_text("keep me")
        for out in (taken, taken / "sub"):
            assert run_cli("experiment", str(cfg), "--out", str(out)) == 64
            assert "not a directory" in capsys.readouterr().err
        assert taken.read_text() == "keep me"


# -- fuzzing both inputs ------------------------------------------------------


class _Sampled(BaseException):
    """Raised by the sampling stubs.  ``main`` does not catch it, so an input
    that reaches sampling parsed cleanly."""


def _sampled(*args, **kwargs):
    raise _Sampled


# the acceptance-10 experiment, and an oracle expression with a gram matrix
FUZZ_CONFIG = {
    "seed": 7, "n_samples": 200_000, "workers": 2,
    "kernel": {"block": {"m": 1, "n": 2}}, "k_values": [4, 16, 64],
    "criterion": {"case": "gaussian-offdiag", "sigma2": 2.0, "m": 1, "n": 2},
    "exact_reference": True, "ks": {"k": 64, "component": "re"},
}
FUZZ_EXPRESSION = {
    "complex_dim": 2, "gram": [["2", "1/2"], ["1/2", "2"]],
    "terms": [{"coeff": ["1/2", "0"],
               "factors": [{"j": [1, 2], "var": 0}, {"j": [1, 2], "var": 1, "conj": True}]}],
}
# an inline kernel with a scale, and a chi-square case with every criterion field
FUZZ_INLINE_CONFIG = {
    "seed": 5, "n_samples": 500, "chunk_size": 128,
    "kernel": {"inline": "1 1 2\n0 0 1 0\n1 1 0 1\n", "scale": "1/2"},
    "criterion": {"case": "gaussian-diag", "sigma2": 1.0, "a": 0.5, "b": 0.0,
                  "m": 1, "n": 1},
}
FUZZ_CHI2_CONFIG = {
    "seed": 3, "n_samples": 2000, "workers": 1,
    "kernel": {"block": {"m": 1, "n": 1}}, "k_values": [2, 8],
    "criterion": {"case": "chi2-diag", "sigma2": 2.0, "a": 0.5, "m": 1, "n": 1,
                  "total_degree": 2, "chi2_variance_is_alpha": False},
    "ks": {"k": 8, "component": "im", "mean": 0, "var": 2},
}
WRONG_VALUES = st.sampled_from([
    None, True, 0, -1, 1.5, 2 ** 128, 10 ** 40, -10 ** 40, math.nan, math.inf, -math.inf,
    "", "abc", "1e100", "1/0", [], [1], [1, 2, 3], {}])


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three fields deleted or swapped for a wrong value."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
            elif isinstance(node, dict) and draw(st.booleans()):
                del node[key]
                break
            else:
                node[key] = copy.deepcopy(draw(WRONG_VALUES))  # later rounds mutate it
                break
    return doc


@given(data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_inputs_never_exit_1(tmp_path, monkeypatch, data):
    for name in ("estimate", "block_reference_trajectory", "collect_component_samples"):
        monkeypatch.setattr(cli.fm, name, _sampled)
    command, base = data.draw(st.sampled_from([("experiment", FUZZ_CONFIG),
                                                ("experiment", FUZZ_INLINE_CONFIG),
                                                ("experiment", FUZZ_CHI2_CONFIG),
                                                ("oracle", FUZZ_EXPRESSION)]))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data.draw(mutated(base))))
    args = [command, str(path)] + (["--out", str(tmp_path / "o")]
                                   if command == "experiment" else [])
    try:
        rc = run_cli(*args)
    except _Sampled:
        return
    assert rc in (0, 64, 65, 66)
