"""Coefficient derivation tests.

Expected values are frozen from independent evaluation: the quartic roots
are checked against direct polynomial evaluation (np.polyval), the scheme
weights against the published 14-digit table, and every weight set against
the full algebraic condition systems.
"""

import math

import numpy as np
import pytest

from asode.coefficients import (
    DEFAULT_A,
    DESIGN_QUARTIC,
    derive_embedded,
    derive_scheme,
    solve_design_quartic,
    verify_embedded_conditions,
    verify_order_conditions,
)
from asode.exceptions import DegenerateParameter

QUARTIC_ROOTS_FROZEN = (0.10643879214266, 0.22042841025921,
                        0.57281606248213, 3.1003167351160)

# Published weight table for the default parameter.
SCHEME_FROZEN = {
    "a": +0.57281606248213,
    "p1": -0.48695861160293,
    "p2": +0.57281606248213,
    "p3": +1.32112526220103,
    "p4": -0.09105090402502,
    "p5": +0.42438423735836,
    "p6": +0.48695861160293,
    "alpha41": 0.0,
    "alpha42": +0.57281606248213,
    "alpha43": +0.42718393751787,
    "beta41": 0.0,
    "beta42": +0.57281606248213,
    "beta43": -0.18882050162852,
    "beta61": 0.0,
    "beta62": 0.0,
    "beta63": +2.51499368618962,
    "beta64": -0.022405291307077,
    "beta65": +0.91371881359685,
    "gamma": -2.891895009239397,
}

EMBEDDED_FROZEN = (0.0, +0.57281606248213, -0.87491444843356,
                   +2.82745609901376, -1.52535771306233)


def test_quartic_roots_match_polynomial_oracle():
    q = solve_design_quartic()
    assert len(q.roots) == 4
    assert list(q.roots) == sorted(q.roots)
    for r in q.roots:
        # independent evaluation of the same polynomial
        assert abs(np.polyval(DESIGN_QUARTIC, r)) < 1e-11


def test_quartic_roots_match_frozen_values():
    q = solve_design_quartic()
    for got, expected in zip(q.roots, QUARTIC_ROOTS_FROZEN):
        assert got == pytest.approx(expected, abs=1e-12)
    assert q.preferred == pytest.approx(DEFAULT_A, abs=1e-12)


def test_default_scheme_matches_frozen_table():
    c = derive_scheme(DEFAULT_A)
    got = {
        "a": c.a,
        "p1": c.p[0], "p2": c.p[1], "p3": c.p[2],
        "p4": c.p[3], "p5": c.p[4], "p6": c.p[5],
        "alpha41": c.alpha4[0], "alpha42": c.alpha4[1], "alpha43": c.alpha4[2],
        "beta41": c.beta4[0], "beta42": c.beta4[1], "beta43": c.beta4[2],
        "beta61": c.beta6[0], "beta62": c.beta6[1], "beta63": c.beta6[2],
        "beta64": c.beta6[3], "beta65": c.beta6[4],
        "gamma": c.gamma,
    }
    for name, expected in SCHEME_FROZEN.items():
        assert got[name] == pytest.approx(expected, abs=1e-12), name


def test_default_scheme_satisfies_all_conditions():
    rep = verify_order_conditions(derive_scheme(DEFAULT_A))
    assert rep.max_abs < 1e-12
    for group in ("order_full", "order_reduced", "aux", "lstability"):
        assert len(rep.group(group)) > 0
    assert len(rep.group("lstability")) == 2


def test_embedded_weights_match_frozen_values():
    c = derive_scheme(DEFAULT_A)
    e = derive_embedded(c)
    for got, expected in zip(e.r, EMBEDDED_FROZEN):
        assert got == pytest.approx(expected, abs=1e-12)
    rep = verify_embedded_conditions(c, e)
    assert rep.max_abs < 1e-12


def _chain_denominators(a, c):
    """Denominators met along the derivation chain, for degeneracy filtering."""
    b2, b4 = c.aux[1], c.aux[3]
    p6 = c.p[5]
    return (
        6.0 * a**3 - 18.0 * a**2 + 9.0 * a - 1.0,
        1.0 - a,
        a,
        6.0 * a**3 - 16.0 * a**2 + 7.0 * a - 1.0,
        1.5 - b4,
        b2,
        6.0 * b4 * p6,
        p6,
        a * (c.gamma + 1.0),
    )


def test_conditions_hold_across_parameter_grid():
    checked = 0
    for a in np.linspace(0.05, 0.95, 181):
        try:
            c = derive_scheme(float(a))
        except DegenerateParameter:
            continue
        if min(abs(d) for d in _chain_denominators(float(a), c)) < 1e-3:
            continue
        rep = verify_order_conditions(c)
        assert rep.max_abs < 1e-10, f"a={a}: residual {rep.max_abs}"
        erep = verify_embedded_conditions(c, derive_embedded(c))
        assert erep.max_abs < 1e-10, f"a={a}: embedded residual {erep.max_abs}"
        checked += 1
    assert checked > 100


def test_every_quartic_root_yields_valid_scheme():
    for r in solve_design_quartic().roots:
        c = derive_scheme(r)
        assert verify_order_conditions(c).max_abs < 1e-10
        e = derive_embedded(c)
        assert verify_embedded_conditions(c, e).max_abs < 1e-10


def test_degenerate_parameters_raise():
    with pytest.raises(DegenerateParameter):
        derive_scheme(0.0)
    with pytest.raises(DegenerateParameter):
        derive_scheme(1.0)
    with pytest.raises(DegenerateParameter):
        derive_scheme(1.0 + 5e-15)
    for a in (math.nan, math.inf, -math.inf):
        with pytest.raises(DegenerateParameter, match="must be finite"):
            derive_scheme(a)
    # a**3 in gamma's denominator raised a bare OverflowError
    for a in (1e200, -1e200, 1e103):
        with pytest.raises(DegenerateParameter,
                           match="overflows a closed-form weight"):
            derive_scheme(a)
    # polish a root of the gamma denominator, then expect rejection
    den = [6.0, -18.0, 9.0, -1.0]
    root = min((r.real for r in np.roots(den) if abs(r.imag) < 1e-12),
               key=lambda r: abs(r - 0.13))
    for _ in range(5):
        val = np.polyval(den, root)
        slope = np.polyval(np.polyder(den), root)
        root -= val / slope
    assert abs(np.polyval(den, root)) < 1e-14
    with pytest.raises(DegenerateParameter):
        derive_scheme(float(root))


def test_all_zero_weights_give_unit_residual():
    c = derive_scheme(DEFAULT_A)
    zeroed = type(c)(a=c.a, gamma=c.gamma, p=np.zeros(6),
                     alpha4=np.zeros(3), beta4=np.zeros(3),
                     beta6=np.zeros(5), aux=np.zeros(4))
    rep = verify_order_conditions(zeroed)
    first = dict((name, value) for name, _, value in rep.entries)
    assert first["full_1"] == pytest.approx(-1.0)


def test_weights_are_read_only_copies_behind_stage_weights():
    # the float path reads stage_weights(); an array written in place
    # would run apart from the floats taken at construction
    p = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    c = type(derive_scheme())(a=0.5, gamma=2.0, p=p, alpha4=np.zeros(3),
                              beta4=np.zeros(3), beta6=np.zeros(5),
                              aux=np.zeros(4))
    assert p.flags.writeable and c.p is not p
    e = derive_embedded(derive_scheme())
    for arr in (c.p, c.alpha4, c.beta4, c.beta6, c.aux, e.r):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert c.stage_weights() == (0.5,) + (0.0,) * 4 + (2.0,) + (0.0,) * 3 \
        + (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert e.stage_weights() == tuple(e.r.tolist())
    assert all(type(x) is float for x in c.stage_weights() + e.stage_weights())


def test_residual_report_rendering():
    rep = verify_order_conditions(derive_scheme(DEFAULT_A))
    text = str(rep)
    assert "max |residual|" in text
    assert "full_1" in text
