import math

import numpy as np
import pytest

import photonboost.beams as beams
import photonboost.polarization as polarization
import photonboost.validation as validation
import photonboost.wigner as wigner
from photonboost.validation import validate

EXPECTED_GROUPS = {
    "metric",
    "wigner_oracle",
    "d_form_equivalence",
    "composition_laws",
    "rho_sanity",
    "ln_rotation_invariance",
    "omega_independence",
    "convergence",
}


def test_fresh_build_passes_every_group():
    report = validate()
    assert {g.name for g in report.groups} == EXPECTED_GROUPS
    failures = [g for g in report.groups if not g.passed]
    assert not failures, f"failing groups: {[(g.name, g.detail) for g in failures]}"
    assert report.passed


def _omega_group(seed=validation.DEFAULT_SEED):
    groups = {name: (fn, cases) for name, fn, cases in validation._GROUPS}
    fn, cases = groups["omega_independence"]
    return fn(validation._group_rng(seed, "omega_independence"), cases)


@pytest.mark.parametrize("seed", [5, 15, 17, 18, 21, 22])
def test_omega_independence_holds_across_seeds(seed):
    # these seeds draw angle gaps of 4 to 8 ulp(pi), which a fixed 1e-15
    # bound rejected although the fold is frequency independent
    result = _omega_group(seed)
    assert result.passed, result.detail


def test_report_serializes():
    report = validate()
    d = report.to_dict()
    assert d["passed"] is True
    assert set(d["groups"]) == EXPECTED_GROUPS
    for entry in d["groups"].values():
        assert set(entry) == {"passed", "detail"}


def test_sign_flip_in_rotation_angle_rule_trips_wigner_group(monkeypatch):
    real = wigner._rot_y_angle

    def flipped(gamma, cos_theta, sin_theta, phi):
        a = np.sin(gamma) * np.sin(phi)
        # flipped sign on the second term of the denominator
        b = np.sin(gamma) * cos_theta * np.cos(phi) - np.cos(gamma) * sin_theta
        return np.arctan2(a, b)

    monkeypatch.setattr(wigner, "_rot_y_angle", flipped)
    report = validate()
    by_name = {g.name: g for g in report.groups}
    assert not by_name["wigner_oracle"].passed
    monkeypatch.setattr(wigner, "_rot_y_angle", real)
    assert validate().passed


def test_missing_gauge_term_trips_form_equivalence(monkeypatch):
    def gauge_without_subtraction(L, p, eps):
        eps = np.asarray(eps, dtype=complex)
        return L.matrix @ eps

    monkeypatch.setattr(polarization, "d_gauge_form", gauge_without_subtraction)
    report = validate()
    by_name = {g.name: g for g in report.groups}
    assert not by_name["d_form_equivalence"].passed


def _drifting_rotation_form(monkeypatch):
    real = polarization.d_rotation_form

    def drifting(L, p, eps):
        # a transport that depends on the photon frequency p^0 by one part in 1e9
        return real(L, p, eps) * (1.0 + 1e-9 * math.log(p.t))

    monkeypatch.setattr(polarization, "d_rotation_form", drifting)


def _nan_production_transport(monkeypatch):
    monkeypatch.setattr(beams, "transport", lambda boosts, vectors: np.full(
        (len(boosts), 3, vectors.shape[1] - 1, vectors.shape[2]), np.nan
    ))


@pytest.mark.parametrize("inject", [_drifting_rotation_form, _nan_production_transport])
def test_transport_clause_trips_omega_independence(monkeypatch, inject):
    base = _omega_group()
    assert base.passed
    inject(monkeypatch)
    result = _omega_group()
    assert not result.passed
    # the angle clause uses neither transport: the transport clause tripped
    angle, _, transport = result.detail.partition(", transport ")
    assert angle == base.detail.partition(", transport ")[0]
    assert not float(transport) <= validation._OMEGA_TRANSPORT_TOL
