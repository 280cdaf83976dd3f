"""Property tests: the config parser and the composition invariants on generated inputs.

Hypothesis draws the inputs; deadline=None because the wall time of one
example says nothing about correctness and drifts with the host's CPU speed.
"""
import math
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import angle_gap
from photonboost.lorentz import (
    BOOST_Z,
    ROT_Y,
    ROT_Z,
    Direction,
    compose,
    from_factors,
    null_momentum,
)
from photonboost.sweep import ConfigError, SweepConfig
from photonboost.wigner import wigner_angle

# numbers, including ints beyond the float range that JSON can carry
_NUMBERS = (
    st.integers(-20, 600)
    | st.floats(-20.0, 20.0)
    | st.floats()
    | st.integers()
    | st.integers(10**308, 10**400).map(lambda n: n * (-1) ** n)
)
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
_FIELDS = [f.name for f in fields(SweepConfig)]
_FIELD_VALUES = _NUMBERS | _JSON
_DOCUMENTS = (
    st.fixed_dictionaries(
        {"alpha": st.floats(-4.0, 4.0), "sigma_theta": st.floats(0.01, 3.2)},
        optional={n: _NUMBERS for n in _FIELDS if n not in ("alpha", "sigma_theta")},
    )
    | st.fixed_dictionaries(
        {"alpha": _FIELD_VALUES, "sigma_theta": _FIELD_VALUES},
        optional={n: _FIELD_VALUES for n in _FIELDS if n not in ("alpha", "sigma_theta")},
    )
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=12), _JSON, max_size=10)
    | _JSON
)

_FACTOR = st.tuples(st.just(BOOST_Z), st.floats(-0.6, 0.6)) | st.tuples(
    st.sampled_from((ROT_Y, ROT_Z)), st.floats(-math.pi, math.pi)
)
_FACTOR_LISTS = st.lists(_FACTOR, max_size=3)
_MOMENTA = st.builds(
    lambda theta, phi, magnitude: null_momentum(Direction(theta, phi), magnitude),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.5, 2.0),
)


@settings(deadline=None, max_examples=400)
@given(_DOCUMENTS)
def test_from_mapping_returns_a_config_or_raises_config_error(raw):
    try:
        cfg = SweepConfig.from_mapping(raw)
    except ConfigError:
        return
    assert isinstance(cfg, SweepConfig)
    assert len(cfg.xi_values()) == cfg.xi_steps


@settings(deadline=None, max_examples=200)
@given(_FACTOR_LISTS, _FACTOR_LISTS)
def test_from_factors_of_a_concatenation_is_the_composition(f1, f2):
    whole = from_factors(f1 + f2)
    parts = compose(from_factors(f1), from_factors(f2))
    assert whole.factors == parts.factors
    assert np.abs(whole.matrix - parts.matrix).max() <= 1e-12


@settings(deadline=None, max_examples=200)
@given(_FACTOR_LISTS, _FACTOR_LISTS, _MOMENTA)
def test_wigner_angles_add_under_composition(f1, f2, p):
    L1, L2 = from_factors(f1), from_factors(f2)
    stepped = wigner_angle(L2, L1.apply(p)) + wigner_angle(L1, p)
    assert angle_gap(wigner_angle(compose(L2, L1), p), stepped) <= 1e-9
