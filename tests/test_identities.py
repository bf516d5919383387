"""The identity suites: shared constructions per run, the floating check, top degree."""

import csv
import dataclasses

from chaoslab import cli, convert, hermite, identities
from chaoslab.hermite import BiPoly


def _status(results):
    return {r.name: r.passed for r in results}


def test_shared_constructions_live_for_one_run(monkeypatch):
    # a first run builds every shared construction at degrees 0..3
    assert all(_status(identities.run_identity_suites(3)).values())
    real = hermite.hermite_of_linear

    def tampered(n, cx, cy):
        return real(n, cx, cy) + BiPoly({(0, 0): 1})  # corrupt one coefficient

    monkeypatch.setattr("chaoslab.hermite.hermite_of_linear", tampered)
    status = _status(identities.run_identity_suites(3))
    assert not status["rotation-identity"]
    assert not status["pair-reconstruction"]
    # nothing the tampered run built outlives it
    monkeypatch.undo()
    assert all(_status(identities.run_identity_suites(3)).values())


def test_floating_check_catches_one_perturbed_inverse_entry(monkeypatch):
    assert identities.suite_pair_reconstruction(5).passed
    real = convert.build_angle_matrix

    def perturbed(grid):
        am = real(grid)
        if grid.n != 4:
            return am
        inverse = am.inverse.copy()
        inverse[2, 1] *= 1 + 1e-6
        return dataclasses.replace(am, inverse=inverse)

    monkeypatch.setattr(convert, "build_angle_matrix", perturbed)
    result = identities.suite_pair_reconstruction(5)
    assert not result.passed
    assert result.detail.startswith("floating: n=4, l=2,")


def test_every_suite_passes_at_the_top_degree(tmp_path):
    top = str(identities.MAX_SYMBOLIC_DEGREE)
    assert cli.main(["identities", "--max-degree", top, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "identities_report.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(identities.SUITES)
    assert all(r["status"] == "pass" for r in rows), rows
