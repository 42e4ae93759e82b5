"""Coefficient derivation for the six-stage additive scheme.

The integrator advances split systems y' = phi(y) + g(y) with six stages

    y_{n+1} = y_n + sum_i p_i k_i,
    k1      = h*phi(y_n),
    D k2    = h*(phi(y_n) + g(y_n)),
    D k3    = k2,
    D k4    = h*phi(y_n + b41*k1 + b42*k2 + b43*k3)
              + h*g(y_n + a41*k1 + a42*k2 + a43*k3),
    D k5    = k4 + gamma*k3,
    k6      = h*phi(y_n + b61*k1 + ... + b65*k5),

where D = E - a*h*B and B approximates the Jacobian of g.  Every weight
follows in closed form from the single parameter `a`.  Third order plus
L-stability of the implicit part leave one scalar degree of freedom; the
default value of `a` additionally kills the leading h^4 error term of the
pure implicit subscheme and is a root of the design quartic

    24*a^4 - 96*a^3 + 72*a^2 - 16*a + 1 = 0.

An embedded second-order solution reuses stages k1..k4 plus one extra
back-substitution, giving a local error estimate for stepsize control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateParameter

# Third (L-stable, empirically preferred) root of the design quartic.
DEFAULT_A = 0.57281606248213

# Descending coefficients of the design quartic.
DESIGN_QUARTIC = (24.0, -96.0, 72.0, -16.0, 1.0)

_DENOM_FLOOR = 1e-14


@dataclass(frozen=True)
class QuarticRoots:
    """The four real roots of the design quartic, ascending."""

    roots: tuple[float, float, float, float]

    @property
    def preferred(self) -> float:
        """Third root: the value used by the default scheme."""
        return self.roots[2]


def solve_design_quartic() -> QuarticRoots:
    """The four real roots of the design quartic, ascending.

    np.roots takes them as the eigenvalues of the quartic's companion
    matrix; DegenerateParameter is raised if any of them is complex.
    """
    roots = np.roots(DESIGN_QUARTIC)
    if np.iscomplexobj(roots):
        raise DegenerateParameter(f"design quartic has complex roots {roots}")
    return QuarticRoots(roots=tuple(sorted(roots.tolist())))


@dataclass(frozen=True, eq=False)
class SchemeCoefficients:
    """Full weight set of the six-stage additive scheme.

    p holds the six solution weights, alpha4/beta4 the third/first stage-4
    combination rows (indices 1..3), beta6 the stage-6 row (indices 1..5),
    aux the four auxiliary combinations used by the reduced order system.
    """

    a: float
    gamma: float
    p: np.ndarray
    alpha4: np.ndarray
    beta4: np.ndarray
    beta6: np.ndarray
    aux: np.ndarray


@dataclass(frozen=True, eq=False)
class EmbeddedCoefficients:
    """Weights r1..r5 of the embedded second-order error estimator."""

    r: np.ndarray


def _guarded_div(num: float, den: float, label: str) -> float:
    if abs(den) < _DENOM_FLOOR:
        raise DegenerateParameter(
            f"denominator {label} = {den:.3e} vanishes for this parameter")
    return num / den


def derive_scheme(a: float = DEFAULT_A) -> SchemeCoefficients:
    """Derive every scheme weight from the free parameter `a`.

    Raises DegenerateParameter when `a` is not finite or makes any
    closed-form denominator smaller than 1e-14 in magnitude (this includes
    a = 0 and a = 1).
    """
    if not math.isfinite(a):
        raise DegenerateParameter(f"parameter a = {a} must be finite")
    if abs(a) < _DENOM_FLOOR or abs(a - 1.0) < _DENOM_FLOOR:
        raise DegenerateParameter(f"parameter a = {a} must differ from 0 and 1")

    gamma = _guarded_div(2.0 * a * (a + 1.0),
                         6.0 * a**3 - 18.0 * a**2 + 9.0 * a - 1.0,
                         "6a^3-18a^2+9a-1")
    p2 = a
    p3 = _guarded_div(a**2 - 4.0 * a / 3.0 + 1.0, 1.0 - a, "1-a")
    p4 = _guarded_div(6.0 * a**3 - 20.0 * a**2 + 11.0 * a - 1.0,
                      6.0 * a - 6.0 * a**2, "6a-6a^2")
    p5 = _guarded_div(6.0 * a**3 - 18.0 * a**2 + 9.0 * a - 1.0,
                      6.0 * a**2 - 6.0 * a, "6a^2-6a")
    b4 = _guarded_div(a - 1.0, 6.0 * a**3 - 16.0 * a**2 + 7.0 * a - 1.0,
                      "6a^3-16a^2+7a-1")
    beta43 = b4 - a
    b2 = _guarded_div(1.0 - b4**2, 1.5 - b4, "1.5-beta_4")
    p6 = _guarded_div(0.5 - b4 / 3.0, b2, "beta_2")
    p1 = -p6
    b1 = _guarded_div(1.0, 6.0 * b4 * p6, "6*beta_4*p6")
    b3 = _guarded_div(1.0 / 6.0 - a * (2.0 * b4 - a) / 3.0, p6, "p6")
    beta65 = _guarded_div(a * (b1 - 2.0 * b2) + b3 - b1, a * gamma + a,
                          "a*(gamma+1)")
    beta63 = b2 - b1 - gamma * beta65
    beta64 = b1 - beta65

    return SchemeCoefficients(
        a=a,
        gamma=gamma,
        p=np.array([p1, p2, p3, p4, p5, p6]),
        alpha4=np.array([0.0, a, 1.0 - a]),
        beta4=np.array([0.0, a, beta43]),
        beta6=np.array([0.0, 0.0, beta63, beta64, beta65]),
        aux=np.array([b1, b2, b3, b4]),
    )


def derive_embedded(c: SchemeCoefficients) -> EmbeddedCoefficients:
    """Solve the second-order plus L-stability conditions for r1..r5."""
    a = c.a
    b4 = c.aux[3]
    if abs(b4) < _DENOM_FLOOR or abs(a * b4) < _DENOM_FLOOR:
        raise DegenerateParameter("beta_4 vanishes; embedded weights undefined")
    r1 = 0.0
    r2 = a
    r3 = 1.0 - a - 0.5 / b4
    r4 = 0.5 * (1.0 - b4) / (a * b4) + 2.0 - a
    r5 = 0.5 * (a - 1.0 + b4) / (a * b4) - 2.0 + a
    return EmbeddedCoefficients(r=np.array([r1, r2, r3, r4, r5]))


@dataclass(frozen=True)
class ResidualReport:
    """Named residuals from the algebraic condition checks.

    Each entry is (name, group, residual) with residual = lhs - rhs of the
    corresponding condition; a perfectly consistent weight set gives all
    zeros up to round-off.
    """

    entries: tuple[tuple[str, str, float], ...]

    @property
    def max_abs(self) -> float:
        return max(abs(v) for _, _, v in self.entries)

    def group(self, name: str) -> tuple[tuple[str, str, float], ...]:
        return tuple(e for e in self.entries if e[1] == name)

    def __str__(self) -> str:
        lines = [f"{name:<22s} {group:<12s} {value: .3e}"
                 for name, group, value in self.entries]
        lines.append(f"max |residual| = {self.max_abs:.3e}")
        return "\n".join(lines)


def verify_order_conditions(c: SchemeCoefficients) -> ResidualReport:
    """Evaluate every third-order and L-stability condition.

    Covers the raw ten-group condition system, the reduced nine-equation
    system with its structural identities, the auxiliary-combination
    consistency relations and both L-stability equations.
    """
    a, gamma = c.a, c.gamma
    p1, p2, p3, p4, p5, p6 = c.p
    a41, a42, a43 = c.alpha4
    b41, b42, b43 = c.beta4
    b61, b62, b63, b64, b65 = c.beta6

    s4 = b41 + b42 + b43
    s6 = b61 + b62 + b63 + b64 + (gamma + 1.0) * b65
    sa = a41 + a42 + a43

    entries = []

    def add(name, group, value):
        entries.append((name, group, float(value)))

    # Raw third-order system: nine equations plus structural identities.
    add("full_1", "order_full", p2 + p3 + p4 + (gamma + 1.0) * p5 - 1.0)
    add("full_2", "order_full", s4 * (p4 + p5) + s6 * p6 - 0.5)
    add("full_3", "order_full",
        a * (p2 + 2.0 * p3 + p4 + (3.0 * gamma + 2.0) * p5)
        + sa * (p4 + p5) - 0.5)
    add("full_4", "order_full", s4**2 * (p4 + p5) + s6**2 * p6 - 1.0 / 3.0)
    add("full_5", "order_full", s4 * (b64 + b65) * p6 - 1.0 / 6.0)
    add("full_6", "order_full",
        a * ((b42 + 2.0 * b43) * (p4 + p5)
             + (b62 + 2.0 * b63 + b64 + (3.0 * gamma + 2.0) * b65) * p6)
        + sa * (b64 + b65) * p6 - 1.0 / 6.0)
    add("full_7", "order_full", sa**2 * (p4 + p5) - 1.0 / 3.0)
    add("full_8", "order_full", a * s4 * (p4 + 2.0 * p5) - 1.0 / 6.0)
    add("full_9", "order_full",
        a * (a * (p2 + 3.0 * p3 + p4 + (6.0 * gamma + 3.0) * p5)
             + (a41 + 2.0 * a42 + 3.0 * a43) * p4
             + (2.0 * a41 + 3.0 * a42 + 4.0 * a43) * p5) - 1.0 / 6.0)
    add("full_10_alpha41", "order_full", a41)
    add("full_10_beta41", "order_full", b41)
    add("full_10_beta61", "order_full", b61)
    add("full_10_p1p6", "order_full", p1 + p6)

    # Reduced system in the auxiliary combinations.
    x1 = b64 + b65
    x2 = b63 + b64 + (gamma + 1.0) * b65
    x3 = a * (2.0 * b63 + b64 + (3.0 * gamma + 2.0) * b65) + b64 + b65
    x4 = a + b43
    add("reduced_1", "order_reduced", p2 + p3 + gamma * p5 - 2.0 / 3.0)
    add("reduced_2", "order_reduced", a * x4 * (p4 + 2.0 * p5) - 1.0 / 6.0)
    add("reduced_3", "order_reduced", x4 * x1 * p6 - 1.0 / 6.0)
    add("reduced_4", "order_reduced", x4 / 3.0 + x2 * p6 - 0.5)
    add("reduced_5", "order_reduced", x4**2 / 3.0 + x2**2 * p6 - 1.0 / 3.0)
    add("reduced_6", "order_reduced",
        a * (2.0 * x4 - a) / 3.0 + x3 * p6 - 1.0 / 6.0)
    add("reduced_7", "order_reduced", p4 + p5 - 1.0 / 3.0)
    add("reduced_8", "order_reduced",
        a * (p2 + 2.0 * p3 + p4 + (3.0 * gamma + 2.0) * p5) - 1.0 / 6.0)
    add("reduced_9", "order_reduced",
        a * (a * (p2 + 3.0 * p3 + p4 + (6.0 * gamma + 3.0) * p5)
             + (3.0 - a) * p4 + (4.0 - a) * p5) - 1.0 / 6.0)
    add("reduced_10_beta62", "order_reduced", b62)
    add("reduced_10_alpha42", "order_reduced", a42 - a)
    add("reduced_10_beta42", "order_reduced", b42 - a)
    add("reduced_10_alpha43", "order_reduced", a43 - (1.0 - a))
    add("reduced_10_p2", "order_reduced", p2 - a)

    # Stored auxiliaries must match their definitions.
    add("aux_1", "aux", c.aux[0] - x1)
    add("aux_2", "aux", c.aux[1] - x2)
    add("aux_3", "aux", c.aux[2] - x3)
    add("aux_4", "aux", c.aux[3] - x4)

    # Vanishing of the stiff-limit numerator of the stability function.
    add("lstab_1", "lstability",
        a**2 * (p1 + p6) + ((a42 - a) * b64 - a * b62) * p6)
    add("lstab_2", "lstability", a * (a - p2) + (a42 - a) * p4)

    return ResidualReport(entries=tuple(entries))


def verify_embedded_conditions(c: SchemeCoefficients,
                               e: EmbeddedCoefficients) -> ResidualReport:
    """Evaluate the second-order conditions of the embedded estimator."""
    a = c.a
    b4 = c.aux[3]
    r1, r2, r3, r4, r5 = e.r
    entries = (
        ("embedded_1", "embedded", float(r1 + r2 + r3 + r4 + r5 - 1.0)),
        ("embedded_2", "embedded", float(r2 + r3 + r4 + r5 - 1.0)),
        ("embedded_3", "embedded", float(b4 * (r4 + r5) - 0.5)),
        ("embedded_4", "embedded",
         float(a * (r2 + 2.0 * r3 + r4 + 2.0 * r5) + r4 + r5 - 0.5)),
        ("embedded_stiff_decay", "embedded", float(r2 - a)),
    )
    return ResidualReport(entries=entries)
